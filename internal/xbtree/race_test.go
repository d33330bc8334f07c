//go:build race

package xbtree

const raceEnabled = true
