package tickunits_test

import (
	"testing"

	"redsoc/internal/analysis/analysistest"
	"redsoc/internal/analysis/tickunits"
)

func TestTickUnits(t *testing.T) {
	analysistest.Run(t, tickunits.Analyzer)
}
