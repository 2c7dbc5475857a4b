package core

import (
	"testing"

	"nztm/internal/tmtest"
)

// The registry-churn suite: thread slots are acquired and released at
// runtime while transactions run, recycling slot IDs — and with them
// reader-table entries and owner words — through many tenants. A stale slot
// or owner word points at a finished attempt's descriptor, whose terminal
// status keeps the new tenant from being confused with its predecessor;
// these tests check it across all variants and both reader modes.
func TestRegistryChurnNZ(t *testing.T) {
	tmtest.RunChurn(t, realFactory(NZ, VisibleReaders))
}

func TestRegistryChurnNZInvisible(t *testing.T) {
	tmtest.RunChurn(t, realFactory(NZ, InvisibleReaders))
}

func TestRegistryChurnBZ(t *testing.T) {
	tmtest.RunChurn(t, realFactory(BZ, VisibleReaders))
}

func TestRegistryChurnSCSS(t *testing.T) {
	tmtest.RunChurn(t, realFactory(SCSS, VisibleReaders))
}
