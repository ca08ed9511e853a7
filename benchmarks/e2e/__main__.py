import sys
from pathlib import Path

# The harness side builds inputs and checks outputs with the program's own
# modules; make them importable without an installed package.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from .cli import main  # noqa: E402

sys.exit(main())
