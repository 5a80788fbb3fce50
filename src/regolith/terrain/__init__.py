from .heightfield import (
    Heightfield,
    OutOfBounds,
    SoilParams,
)
from .deform import (
    RELAX_MAX_SWEEPS,
    RELAX_SLOPE_TOL,
    RelaxResult,
    SweptCut,
    avalanche_relax,
    deposit,
    excavate_swept,
    max_region_slope,
)
from .forces import BETA_MAX, BETA_MIN, DigForce, dig_resistance
from .generate import generate_heightfield
