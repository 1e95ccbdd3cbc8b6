// Package obs is the observability layer shared by the analysis daemon
// (cmd/foldsvc) and the CLIs: a dependency-free metrics registry rendered
// in the Prometheus text exposition format, structured-logging (slog)
// constructors with a uniform configuration surface, and net/http/pprof
// wiring for a non-default ServeMux.
//
// The registry is deliberately small — counters, gauges (including
// callback gauges), and cumulative histograms, each with an optional
// fixed label set — because the analysis engine only needs to expose
// request traffic, record/burst throughput, cluster counts and pool
// activity. Everything is safe for concurrent use; rendering takes a
// consistent snapshot under the registry lock.
package obs

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strings"
)

// NewLogger builds a slog.Logger writing to w at the given level, in
// logfmt-style text by default or JSON when json is set. It is the one
// logger constructor the binaries share, so every process logs in the
// same shape.
func NewLogger(w io.Writer, level slog.Level, json bool) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	if json {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

// ParseLevel resolves a -log-level flag value ("debug", "info", "warn",
// "error", case-insensitive) to a slog.Level, defaulting to Info for
// unknown strings.
func ParseLevel(s string) slog.Level {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug
	case "warn", "warning":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}

// Discard returns a logger that drops every record. The analysis
// packages normalize a nil Options/Config logger to this, so library
// code can log unconditionally without nil checks and CLI runs stay
// silent unless a logger is supplied.
func Discard() *slog.Logger { return slog.New(discardHandler{}) }

// discardHandler is a slog.Handler that is never enabled.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// RegisterPprof mounts the net/http/pprof handlers under /debug/pprof/
// on mux. The stock pprof package only registers on
// http.DefaultServeMux; daemons that build their own mux (as foldsvc
// does, to keep the surface explicit) call this instead.
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
