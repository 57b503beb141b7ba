import os


def main() -> None:
    """Entry point of `macrofield` and `python -m macrofield`.

    No command makes a BLAS call large enough to gain from OpenBLAS's thread
    pool, so BLAS runs on one thread unless the caller set
    OPENBLAS_NUM_THREADS. The variable is read when numpy loads, which only a
    subcommand's handler does, after it is set here.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    cli_main()


if __name__ == "__main__":
    main()
