//go:build !race

package span_test

const raceEnabled = false
