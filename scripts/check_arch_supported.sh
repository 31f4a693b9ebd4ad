#!/usr/bin/env sh
# Usage: check_arch_supported.sh <scalar|avx2>
#
# Exit 0 when this machine can execute the given kernel tier, 1 when it
# cannot, 2 on usage error. CI's per-kernel-path test loops call this as a
# cheap pre-flight so forcing a tier the runner's CPU lacks skips (with a
# note) instead of silently running the scalar fallback and claiming SIMD
# coverage.
set -eu

tier="${1:-}"
case "$tier" in
  scalar)
    exit 0
    ;;
  avx2)
    # Linux: flag list in /proc/cpuinfo. Anything else: be conservative.
    if [ -r /proc/cpuinfo ]; then
      if grep -q -m1 -w "$tier" /proc/cpuinfo; then
        exit 0
      fi
      exit 1
    fi
    echo "check_arch_supported.sh: no /proc/cpuinfo; assuming $tier absent" >&2
    exit 1
    ;;
  *)
    echo "usage: $0 <scalar|avx2>" >&2
    exit 2
    ;;
esac
