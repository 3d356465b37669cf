//go:build race

package ttcp_test

func init() { raceDetector = true }
