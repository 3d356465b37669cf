//go:build race

// Package race reports whether the binary was built with the race
// detector. Tests that pin allocation counts skip under it: the detector
// allocates on its own.
package race

// Enabled is true in a -race build.
const Enabled = true
