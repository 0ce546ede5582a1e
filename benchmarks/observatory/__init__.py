"""The perf observatory: this repo's benchmark (see README.md beside this file)."""
