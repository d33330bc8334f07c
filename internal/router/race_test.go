//go:build race

package router

const raceEnabled = true
