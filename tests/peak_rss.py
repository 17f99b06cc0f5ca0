"""Run the ptdarboux command line in this process and report its peak memory.

    PYTHONPATH=src python tests/peak_rss.py verify --n-max 10 --format json

runs ptdarboux.cli.main on the arguments given, then prints this process's
VmHWM line from /proc/self/status (its peak resident memory; Linux only) to
stderr, and exits with main's exit code.
"""
import sys

from ptdarboux.cli import main

if __name__ == "__main__":
    code = main(sys.argv[1:])
    with open("/proc/self/status", encoding="ascii") as status:
        print(*(line.strip() for line in status if line.startswith("VmHWM")), file=sys.stderr)
    sys.exit(code)
