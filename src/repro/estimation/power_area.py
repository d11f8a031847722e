"""Whole-ADG power/area estimation and 'synthesis'.

:class:`AreaPowerModel` applies the per-component regression of
Section V-C to every node of an ADG — this is what the DSE loop calls
thousands of times. :func:`synthesize_adg` is the expensive "ground
truth": per-component synthesis plus the fabric-level integration
overhead (clock tree, top-level wiring, timing-closure buffers) that the
paper identifies as the reason estimates come out 4-7% *below* synthesis
(Figure 15 discussion).
"""

from repro.estimation.regression import (
    component_features,
    fit_regression,
)
from repro.estimation.synth_db import generate_dataset, synthesize_component

#: Fabric-integration overhead applied by full synthesis but invisible to
#: the per-component regression (Section VIII-B: "extra structures are
#: required to meet timing for the whole fabric").
FABRIC_OVERHEAD = 1.055


class AreaPowerModel:
    """Regression-backed area/power estimator for whole ADGs."""

    def __init__(self, models=None):
        if models is None:
            models = fit_regression(generate_dataset())
        self._models = models

    def component_estimate(self, adg, component):
        """(area, power) estimate for one node of ``adg``."""
        in_links = len(adg.in_links(component.name))
        out_links = len(adg.out_links(component.name))
        model = self._models.get(type(component).__name__)
        if model is None:
            # Fall back to direct synthesis for unmodeled types.
            return synthesize_component(
                component, in_links, out_links, noisy=False
            )
        return model.predict(
            component_features(component, in_links, out_links)
        )

    def estimate(self, adg):
        """Estimated ``(area_mm2, power_mw)`` of the whole design."""
        area = 0.0
        power = 0.0
        for component in adg.nodes():
            a, p = self.component_estimate(adg, component)
            area += a
            power += p
        return area, power


_DEFAULT_MODEL = None


def default_model():
    """The lazily fitted singleton model (dataset generation and fitting
    take a moment; DSE reuses one instance)."""
    global _DEFAULT_MODEL
    if _DEFAULT_MODEL is None:
        _DEFAULT_MODEL = AreaPowerModel()
    return _DEFAULT_MODEL


def estimate_area_power(adg, model=None):
    """Convenience wrapper: regression estimate for ``adg``."""
    return (model or default_model()).estimate(adg)


def synthesize_adg(adg):
    """'Synthesize' the whole design: the validation ground truth.

    Per-component synthesis (with measurement noise) plus the fabric
    integration overhead. Returns ``(area_mm2, power_mw)``.
    """
    area = 0.0
    power = 0.0
    for component in adg.nodes():
        a, p = synthesize_component(
            component,
            len(adg.in_links(component.name)),
            len(adg.out_links(component.name)),
        )
        area += a
        power += p
    return area * FABRIC_OVERHEAD, power * FABRIC_OVERHEAD
