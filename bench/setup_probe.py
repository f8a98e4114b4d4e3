"""Times set-up in a fresh interpreter: importing rmvhash and reading the
given input files through the program's readers (`.manifest` files with
`dataset.load_dataset`, anything else with `dataset.load_view`).

Usage: python3 setup_probe.py SRC_DIR FILE...   Prints the seconds taken.
Nothing but the standard library is imported before the clock starts.
"""

import sys
import time


def main():
    src, files = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    from rmvhash import dataset

    for path in files:
        if path.endswith(".manifest"):
            dataset.load_dataset(path)
        else:
            dataset.load_view(path)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
