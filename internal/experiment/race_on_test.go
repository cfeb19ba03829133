//go:build race

package experiment

// raceEnabled reports whether the race detector is compiled in; it slows
// ATPG about tenfold, so the largest pinned rows skip under it.
const raceEnabled = true
