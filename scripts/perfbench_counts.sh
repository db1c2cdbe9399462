#!/usr/bin/env bash
# Regenerate the seed-11 `counts` line of every perfbench workload and compare
# it with the checked-in record, scripts/perfbench_counts.txt. A counts line
# (delivery fingerprint plus every counter) is deterministic per seed, so any
# difference means the library's behaviour changed. A change that moves
# behaviour on purpose re-records with --update and says why in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

RECORD=scripts/perfbench_counts.txt
UPDATE=0
case "${1:-}" in
  --update) UPDATE=1 ;;
  "") ;;
  *) echo "usage: scripts/perfbench_counts.sh [--update]" >&2; exit 2 ;;
esac

current="$(mktemp)"
trap 'rm -f "${current}"' EXIT
for workload in mmog_lees hft_ves zones_clees; do
  line="$(python3 perfbench/run.py --workload "${workload}" --seed 11 --seconds 1 \
      --trace 0 --reps 1 | grep '^counts ')"
  echo "${workload} ${line}" >> "${current}"
done

if [[ "${UPDATE}" == "1" ]]; then
  cp "${current}" "${RECORD}"
  echo "recorded ${RECORD}"
elif diff -u "${RECORD}" "${current}"; then
  echo "perfbench counts match ${RECORD}"
else
  echo "perfbench counts differ from ${RECORD} (see the diff above)" >&2
  exit 1
fi
