package simdeterminism_test

import (
	"testing"

	"redsoc/internal/analysis/analysistest"
	"redsoc/internal/analysis/simdeterminism"
)

func TestSimDeterminism(t *testing.T) {
	analysistest.Run(t, simdeterminism.Analyzer)
}
