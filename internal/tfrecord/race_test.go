//go:build race

package tfrecord

// raceEnabled: the race detector makes sync.Pool drop a share of its
// Puts at random, so tests that count allocations across pool round
// trips skip themselves under -race.
const raceEnabled = true
