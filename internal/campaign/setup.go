package campaign

import (
	"fmt"

	"pilgrim/internal/g5k"
	"pilgrim/internal/pilgrim"
	"pilgrim/internal/platgen"
	"pilgrim/internal/sim"
	"pilgrim/internal/store"
)

// GenerateVariants lists the campaign `generate:` values (platgen.Named
// resolves each to a reference dataset and variant).
var GenerateVariants = []string{"g5k_test", "g5k_cabinets", "g5k_mini"}

// BuildRegistry generates the campaign's platform from the embedded
// Grid'5000 reference and registers it under the campaign's platform
// name, ready for an InProcessBackend. Campaigns that only name a
// platform (remote replay) cannot be built in-process.
func BuildRegistry(ref PlatformRef) (*pilgrim.Registry, error) {
	return BuildDurableRegistry(ref, nil, nil)
}

// BuildDurableRegistry is BuildRegistry over a durable store: the
// storage (and the state recovered from it) is installed before the
// platform registers, so a restarted drill resumes the campaign's
// timeline instead of starting fresh. A nil storage builds the ordinary
// in-memory registry.
func BuildDurableRegistry(ref PlatformRef, s pilgrim.Storage, recovered *store.RecoveredState) (*pilgrim.Registry, error) {
	if ref.Generate == "" {
		return nil, fmt.Errorf("campaign: platform has no generate: variant (in-process replay needs one; use -server for a remote platform)")
	}
	dataset, variant, ok := platgen.Named(ref.Generate, g5k.Default())
	if !ok {
		return nil, fmt.Errorf("campaign: unknown generate variant %q (have %v)", ref.Generate, GenerateVariants)
	}
	plat, err := platgen.Generate(dataset, platgen.Options{
		Variant:              variant,
		EquipmentLimits:      ref.EquipmentLimits,
		UseMeasuredLatencies: ref.MeasuredLatencies,
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: generating %s: %w", ref.Generate, err)
	}
	cfg := sim.DefaultConfig()
	cfg.GammaUsesLatencyFactor = ref.GammaLatFactor
	registry := pilgrim.NewRegistry()
	if s != nil {
		if err := registry.SetStorage(s, recovered); err != nil {
			return nil, err
		}
	}
	if err := registry.Add(ref.PlatformName(), pilgrim.PlatformEntry{Platform: plat, Config: cfg}); err != nil {
		return nil, err
	}
	return registry, nil
}
