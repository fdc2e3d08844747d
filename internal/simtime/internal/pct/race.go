//go:build race

package pct

func init() { Race = true }
