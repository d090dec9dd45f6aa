package rtos

import (
	"os"
	"testing"

	"rmtest/internal/leakcheck"
)

// TestMain fails the package when any test leaves goroutines running,
// such as a system whose task coroutines were never shut down.
func TestMain(m *testing.M) { os.Exit(leakcheck.Main(m)) }
