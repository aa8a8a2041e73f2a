"""Design-space exploration of ICCA chip architectures (§6.4)."""

from repro.dse.explorer import (
    DesignPoint,
    DesignPointResult,
    DesignSpaceExplorer,
    bottleneck,
)

__all__ = ["DesignPoint", "DesignPointResult", "DesignSpaceExplorer", "bottleneck"]
