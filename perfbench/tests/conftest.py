import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(PERFBENCH), str(PERFBENCH.parent / "src")]
