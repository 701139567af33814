package detflow_test

import (
	"testing"

	"redsoc/internal/analysis/analysistest"
	"redsoc/internal/analysis/detflow"
)

func TestDetFlow(t *testing.T) {
	analysistest.Run(t, detflow.Analyzer)
}
