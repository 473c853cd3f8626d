"""End-to-end pipeline, reporting, and CLI.

Each name loads its submodule on first use (:mod:`repro.lazy`); the
seam types the engine shares with the pipeline live in
:mod:`repro.driver.hooks`, which loads no analysis layer.
"""

from ..lazy import exports

__all__, __getattr__ = exports(__name__, {
    "hooks": ("CompositeHooks", "PipelineHooks", "StageTimings"),
    "panorama": ("CompilationResult", "LoopReport", "Panorama"),
    "report": ("format_table", "yes_no"),
})
