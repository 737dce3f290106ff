//go:build race

package main

// Under the race detector a generation takes tens of times longer, so
// the test windows stretch to still hold a few of them.
const testScale = 20
