"""`python -m koopman_lab <command>`: the same entry point as `koopman-lab`."""

from .cli import main

if __name__ == "__main__":
    main()
