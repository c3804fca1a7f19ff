"""The numpy and scipy versions the golden values were computed with.

The golden tests run only on these versions; on any other the skip
markers below say why they were skipped.
"""

import numpy as np
import pytest
import scipy

GOLDEN_NUMPY = "2.4.6"
GOLDEN_SCIPY = "1.17.1"

# engine streams and run_experiment outputs
needs_numpy = pytest.mark.skipif(
    np.__version__ != GOLDEN_NUMPY,
    reason=f"golden values were drawn with numpy {GOLDEN_NUMPY}; numpy "
           f"{np.__version__} may give a different binomial stream")
# CLI stdout
needs_numpy_stdout = pytest.mark.skipif(
    np.__version__ != GOLDEN_NUMPY,
    reason=f"golden stdout was drawn with numpy {GOLDEN_NUMPY}; numpy "
           f"{np.__version__} may give a different random stream")
needs_scipy = pytest.mark.skipif(
    scipy.__version__ != GOLDEN_SCIPY,
    reason=f"golden audit was computed with scipy {GOLDEN_SCIPY}; scipy "
           f"{scipy.__version__} may round the binomial pmf differently")
