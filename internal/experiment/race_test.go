//go:build race

package experiment

// The race detector pads every allocation, so a -race build allocates
// more bytes (not more objects) per run.
func init() { raceBuild = true }
