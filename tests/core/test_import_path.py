"""What a marketplace loads: ``networkx`` only with a gossip overlay.

``networkx`` costs about 18 MB and 150 ms to import, and the marketplace
needs none of it: the ontology is a tree of two dicts, and the topology
module imports ``networkx`` inside :func:`random_regular_overlay` only.
The check runs in a fresh interpreter, since the test session itself has
imported ``networkx`` long before.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

SCRIPT = """
import sys
import repro.core
from repro.core import Marketplace
from repro.ml import GossipConfig
Marketplace(seed=1)
print("networkx" in sys.modules)
from repro.net.topology import random_regular_overlay
import numpy as np
random_regular_overlay(8, 3, np.random.default_rng(0))
print("networkx" in sys.modules)
"""


def test_marketplace_leaves_networkx_unimported():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]
