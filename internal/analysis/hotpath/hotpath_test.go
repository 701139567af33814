package hotpath_test

import (
	"testing"

	"redsoc/internal/analysis/analysistest"
	"redsoc/internal/analysis/hotpath"
)

func TestHotPath(t *testing.T) {
	analysistest.Run(t, hotpath.Analyzer)
}
