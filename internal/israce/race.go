//go:build race

// Package israce reports whether the race detector is compiled in, for
// tests whose assertion it invalidates: under -race sync.Pool drops a
// quarter of what is put back, so a zero-allocation check on pooled
// state cannot hold.
package israce

// Enabled is true under -race.
const Enabled = true
