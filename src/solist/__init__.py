"""Self-organizing sequential search.

Simulate the move-to-front, transpose, and frequency-count list-accessing
policies under the full and partial cost models, generate
repeated-permutation request sequences, evaluate exact closed-form cost
formulas for move-to-front and transpose on those sequences, and verify
formulas against simulation cell by cell.
"""

from .closed_form import *
from .errors import *
from .harness import *
from .list_core import *
from .policies import *
from .seqgen import *

__version__ = "0.1.0"

__all__ = (
    closed_form.__all__
    + errors.__all__
    + harness.__all__
    + list_core.__all__
    + policies.__all__
    + seqgen.__all__
)
