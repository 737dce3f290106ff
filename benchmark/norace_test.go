//go:build !race

package main

const testScale = 1
