"""The numpy version the golden values were computed with.

The golden tests run only on this version; on any other the skip markers
below say why they were skipped.  The audit's golden stdout depends on no
scipy: the package reads the binomial pmf itself.
"""

import numpy as np
import pytest

GOLDEN_NUMPY = "2.4.6"

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
