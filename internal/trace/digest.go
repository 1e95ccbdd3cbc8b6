package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"io"
)

// DigestBytes returns the full hex-encoded sha256 of an encoded trace —
// the canonical content address used everywhere a trace (or shard)
// needs an identity: the foldsvc coordinator's ring routing, the
// rescache keys, and the disk-tier file names all share this one
// helper so no layer invents its own truncated variant.
func DigestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// DigestReader wraps an io.Reader with an incremental sha256,
// io.TeeReader style: every byte read through it is hashed exactly
// once, so a trace stream can be decoded (by StreamReader or a spool)
// and content-addressed in a single pass without ever buffering the
// body twice. After the stream is drained to EOF, Sum equals
// DigestBytes of the whole input.
type DigestReader struct {
	r io.Reader
	h hash.Hash
}

// NewDigestReader returns a DigestReader hashing everything read
// from r.
func NewDigestReader(r io.Reader) *DigestReader {
	return &DigestReader{r: r, h: sha256.New()}
}

// Read implements io.Reader, hashing the bytes it passes through.
func (d *DigestReader) Read(p []byte) (int, error) {
	n, err := d.r.Read(p)
	if n > 0 {
		d.h.Write(p[:n])
	}
	return n, err
}

// Sum returns the hex sha256 of the bytes read so far. It must not be
// called concurrently with Read.
func (d *DigestReader) Sum() string {
	return hex.EncodeToString(d.h.Sum(nil))
}
