"""Least-squares power/area regression (Section V-C).

"A dataset of all hardware modules with a sampling of possible parameters
(number of I/O links, data width, register file size etc.) was synthesized
to build the analytical model." One linear model per component type, over
hand-crafted physically-motivated features, fitted with numpy lstsq.
"""

import numpy as np

from repro.adg.components import (
    ControlCore,
    DelayFifo,
    Memory,
    ProcessingElement,
    Switch,
    SyncElement,
)
from repro.errors import EstimationError
from repro.isa.fu import select_functional_units


def component_features(component, in_links=2, out_links=2):
    """Feature vector for one component (type-specific, fixed length)."""
    width_ratio = component.width / 64.0
    if isinstance(component, ProcessingElement):
        units = select_functional_units(component.op_names)
        fu_gates = sum(unit.gate_cost for unit in units) * width_ratio
        window = component.max_instructions if component.is_dynamic else 0
        return [
            1.0,
            fu_gates,
            in_links * width_ratio,
            component.register_file_size * width_ratio,
            (0.0 if component.is_dynamic
             else in_links * component.delay_fifo_depth * width_ratio),
            float(component.is_dynamic),
            window,
            float(component.is_dynamic) * (in_links + out_links),
            float(component.is_shared) * component.max_instructions,
            float(component.decomposable_to < component.width),
        ]
    if isinstance(component, Switch):
        lanes = component.width // component.decomposable_to
        return [
            1.0,
            in_links * out_links * width_ratio,
            (in_links * out_links * width_ratio) * np.log2(max(1, lanes)),
            float(component.is_dynamic) * (in_links + out_links),
            float(component.flop_output) * out_links * width_ratio,
            float(component.routing_table_size),
        ]
    if isinstance(component, Memory):
        # DMA nodes model the L2 interface, not storage: their capacity is
        # nominal and must not activate the SRAM-macro features.
        is_dma = component.kind.value == "dma"
        kb = 0.0 if is_dma else component.capacity_bytes / 1024.0
        return [
            1.0,
            kb,
            kb * np.log2(max(1, component.banks)),
            float(component.num_stream_slots),
            float(component.indirect),
            float(component.indirect) * component.banks,
            float(component.atomic_update) * component.banks,
            float(component.coalescing),
            float(component.width_bytes),
            float(is_dma),
        ]
    if isinstance(component, SyncElement):
        words = component.depth * max(1, component.width // 64)
        return [1.0, float(words), float(component.lanes64)]
    if isinstance(component, DelayFifo):
        return [1.0, component.depth * width_ratio]
    if isinstance(component, ControlCore):
        return [
            1.0,
            float(component.programmable),
            float(component.programmable) * component.issue_width,
            float(component.command_queue_depth),
        ]
    raise EstimationError(
        f"no feature extractor for {type(component).__name__}"
    )


class ComponentRegression:
    """Fitted area & power model for one component type."""

    def __init__(self, type_name, area_weights, power_weights):
        self.type_name = type_name
        self.area_weights = np.asarray(area_weights)
        self.power_weights = np.asarray(power_weights)

    def predict(self, features):
        """Return ``(area_mm2, power_mw)`` (clamped non-negative)."""
        x = np.asarray(features, dtype=float)
        if x.shape != self.area_weights.shape:
            raise EstimationError(
                f"{self.type_name}: expected {self.area_weights.shape[0]} "
                f"features, got {x.shape[0]}"
            )
        return (
            max(0.0, float(x @ self.area_weights)),
            max(0.0, float(x @ self.power_weights)),
        )


def fit_regression(dataset):
    """Fit one :class:`ComponentRegression` per component type.

    ``dataset`` is the output of
    :func:`repro.estimation.synth_db.generate_dataset`.
    Returns ``{type_name: ComponentRegression}``.
    """
    models = {}
    for type_name, rows in dataset.items():
        if not rows:
            continue
        features = np.asarray([row[0] for row in rows], dtype=float)
        areas = np.asarray([row[1] for row in rows], dtype=float)
        powers = np.asarray([row[2] for row in rows], dtype=float)
        area_weights, *_ = np.linalg.lstsq(features, areas, rcond=None)
        power_weights, *_ = np.linalg.lstsq(features, powers, rcond=None)
        models[type_name] = ComponentRegression(
            type_name, area_weights, power_weights
        )
    return models
