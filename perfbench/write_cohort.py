"""Write one phantom cohort: ``python3 write_cohort.py CONFIG_JSON OUT_DIR``.

CONFIG_JSON holds the fields of ``lesionkit.phantom.PhantomConfig``.  The
benchmark runs this in a child interpreter to build the on-disk input of
``evaluate_disk``; lesionkit must be importable (PYTHONPATH=src).
"""

import json
import sys

from lesionkit.phantom import PhantomConfig, write_cohort


def _tuples(v):
    return tuple(_tuples(x) for x in v) if isinstance(v, list) else v


if __name__ == "__main__":
    fields = {k: _tuples(v) for k, v in json.loads(sys.argv[1]).items()}
    write_cohort(PhantomConfig(**fields), sys.argv[2])
