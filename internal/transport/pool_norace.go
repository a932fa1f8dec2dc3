//go:build !race

package transport

const poisonReleased = false // put fills released buffers only under -race; see pool_race.go
