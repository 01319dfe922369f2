"""One cold start: a fresh interpreter imports the CLI and loads the inputs.

Run by ``run.py`` as ``python3 perfbench/setup_probe.py SRC INPUT_DIR``.  It
prints one JSON line, ``{"import_s": ...}``, once the inputs are parsed, and
exits; the parent times the whole span from process start to that line.
"""

import os
import sys
import time


def main() -> int:
    src, inputs = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from stablepairs import cli

    import_s = time.perf_counter() - t0
    from stablepairs import serialize

    for name in sorted(os.listdir(inputs)):
        doc = cli._load(os.path.join(inputs, name))
        if "gamma" in doc:
            serialize.curve_from_json(doc)
        elif "v" in doc:
            serialize.pair_from_json(doc)
        elif "F" in doc:
            serialize.hypersurface_from_json(doc)
        elif "entries" in doc:
            serialize.sigma_from_json(doc)
        else:
            serialize.poly_from_json(doc)
    print('{"import_s": %r}' % import_s, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
