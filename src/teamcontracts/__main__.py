import os

# No kernel here uses BLAS at a size where threads pay, and an idle OpenBLAS
# worker spins on a spare core through every call; a value already set wins.
# numpy loads later, inside the verbs that compute on arrays.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402  (whatever cli imports must load after the line above)

if __name__ == "__main__":
    raise SystemExit(main())
