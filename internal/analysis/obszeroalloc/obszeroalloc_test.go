package obszeroalloc_test

import (
	"testing"

	"redsoc/internal/analysis/analysistest"
	"redsoc/internal/analysis/obszeroalloc"
)

func TestObsZeroAlloc(t *testing.T) {
	analysistest.Run(t, obszeroalloc.Analyzer)
}
