package sweep

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestRunRejectsWarmStartWithCache: memoizing chain-order-dependent warm
// results would leak them into unrelated batches, so Run must refuse the
// combination up front instead of silently producing order-dependent caches.
func TestRunRejectsWarmStartWithCache(t *testing.T) {
	jobs := []Job{{Stack: fig4Stack(t, 10), Model: core.Model1D{}}}

	_, err := Run(context.Background(), jobs, Options{WarmStart: true, Cache: NewCacheSize(8)})
	if err == nil {
		t.Fatal("Run accepted WarmStart together with a shared Cache")
	}
	for _, want := range []string{"WarmStart", "Cache"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}

	// Each option alone is fine.
	for _, opt := range []Options{
		{WarmStart: true},
		{Cache: NewCacheSize(8)},
	} {
		if _, err := Run(context.Background(), jobs, opt); err != nil {
			t.Errorf("Run(%+v) = %v, want nil", opt, err)
		}
	}
}
