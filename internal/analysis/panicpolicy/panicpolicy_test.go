package panicpolicy_test

import (
	"testing"

	"redsoc/internal/analysis/analysistest"
	"redsoc/internal/analysis/panicpolicy"
)

func TestPanicPolicy(t *testing.T) {
	analysistest.Run(t, panicpolicy.Analyzer)
}
