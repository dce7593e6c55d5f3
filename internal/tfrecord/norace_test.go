//go:build !race

package tfrecord

const raceEnabled = false
