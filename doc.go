// Package repro reproduces "Unveiling Internal Evolution of Parallel
// Application Computation Phases" (Servat, Llort, Giménez, Huck, Labarta;
// ICPP 2011): an automated trace-analysis methodology that combines
// computation-burst clustering (structure detection) with *folding* —
// projecting coarse-grain samples from many instances of a repetitive
// phase into one synthetic instance to reconstruct the phase's fine-grain
// internal evolution without fine-grain overhead.
//
// The repository layout:
//
//	internal/trace      trace data model, binary I/O, validation
//	internal/paraver    Paraver-style .prv/.pcf text encoding
//	internal/counters   synthetic PAPI counters and evolution shapes
//	internal/kernels    computation-kernel models (ground truth)
//	internal/sim        deterministic message-passing simulator
//	internal/burst      computation-burst extraction
//	internal/cluster    DBSCAN burst clustering, train-then-classify Model
//	internal/parallel   bounded fan-out, chunked reduce, buffer pool
//	internal/fit        PAVA, monotone cubic Hermite, kernel smoothing
//	internal/folding    the paper's core contribution
//	internal/profile    flat profiles (compute/MPI split, load balance)
//	internal/structure  loop detection, SPMD score, iteration stats
//	internal/spectral   marker-free period detection
//	internal/online     online training + incremental folder
//	internal/core       the analysis pipeline (AnalyzeContext, parallel by
//	                    default with a byte-identical-output guarantee;
//	                    Options.Parallelism bounds the workers)
//	internal/apps       the evaluation applications (+ wavefront)
//	internal/experiments every table/figure of the evaluation
//	cmd/...             tracegen, trstats, trslice, burstcluster, fold, report
//	examples/...        runnable walkthroughs
//
// See README.md for usage, DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-vs-measured record.
package repro
