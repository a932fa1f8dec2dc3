//go:build race

package transport

const poisonReleased = true // a receiver reading a buffer it released sees a malformed envelope
