import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_and_cli_import_without_scipy():
    # numpy is the one runtime dependency; scipy comes with the test extra only
    code = (
        "import json, sys, phasebound, phasebound.cli; "
        "print(json.dumps([phasebound.__file__, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    origin, scipy_modules = json.loads(out.stdout.splitlines()[-1])
    assert Path(origin).is_relative_to(SRC)
    assert scipy_modules == []
