package conservativeround_test

import (
	"testing"

	"redsoc/internal/analysis/analysistest"
	"redsoc/internal/analysis/conservativeround"
)

func TestConservativeRound(t *testing.T) {
	analysistest.Run(t, conservativeround.Analyzer)
}
