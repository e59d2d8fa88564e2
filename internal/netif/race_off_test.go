//go:build !race

package netif_test

const raceEnabled = false
