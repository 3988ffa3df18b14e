#!/usr/bin/env bash
# The one benchmark command; see benchmark/README.md and run.py --help.
exec python3 "$(dirname "$0")/run.py" "$@"
