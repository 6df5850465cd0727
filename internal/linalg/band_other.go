//go:build !amd64

package linalg

// factorLanes leaves every row to the row loop: the lane blocks are amd64
// assembly.
func (m *Band) factorLanes() (int, error) { return 0, nil }
