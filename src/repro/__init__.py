"""CHERI-SIMT reproduction: NoCL compiler, SM simulator and evaluation."""

import os

#: The checked-in evaluation artifacts: ``results/`` at the repository
#: root.  Read it as ``repro.RESULTS_DIR`` at call time (not imported by
#: value) so a caller can redirect every writer by rebinding it.
RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "results")
