#!/usr/bin/env bash
# Same-host benchmark gate. Runs the repository benchmark (bench/run.sh)
# on the base commit and on this checkout in alternating back-to-back
# pairs, and judges every pair with this checkout's `bench/run.sh
# -compare` (the BENCHMARK.json bounds plus the hi_p99_us and fail_frac
# gate metrics). A workload fails when a strict majority of its pairs
# fail; an incorrect rep on this checkout fails the gate at once.
#
# Base is the merge base with origin/$GITHUB_BASE_REF on a pull request
# and HEAD^ otherwise, so the checkout needs full history:
#
#	bash .github/scripts/bench-gate.sh
#
# Host speed drifts by tens of percent over tens of seconds, and the drift
# is shared by every workload. Short pairs, alternated sides and a vote
# keep that drift from deciding the verdict.
set -euo pipefail

rounds=5  # pairs per workload
seconds=3 # --seconds of each one-workload run

root="$(git rev-parse --show-toplevel)"
cd "$root"
if [ -n "${GITHUB_BASE_REF:-}" ]; then
	base_rev="$(git merge-base HEAD "origin/$GITHUB_BASE_REF")"
else
	base_rev="$(git rev-parse HEAD^)"
fi
work="$(mktemp -d)"
trap 'git worktree remove --force "$work/base" 2>/dev/null || true; rm -rf "$work"' EXIT
git worktree add --detach --quiet "$work/base" "$base_rev"
mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
echo "bench gate: base $(git rev-parse --short "$base_rev"), head $(git rev-parse --short HEAD), $rounds rounds of ${workloads[*]}"

start=$SECONDS
declare -A failed
for w in "${workloads[@]}"; do failed[$w]=0; done
for ((r = 1; r <= rounds; r++)); do
	order=(base head)
	if ((r % 2 == 0)); then order=(head base); fi
	for w in "${workloads[@]}"; do
		for side in "${order[@]}"; do
			dir="$root"
			if [ "$side" = base ]; then dir="$work/base"; fi
			log="$work/$side-$r-$w.log"
			if ! bash "$dir/bench/run.sh" --workload "$w" --seconds "$seconds" \
				--out "$work/$side-$r-$w.json" >"$log" 2>&1; then
				if [ "$side" = head ]; then
					echo "FAIL: $w is not correct on head (round $r):"
					cat "$log"
					exit 1
				fi
				echo "warning: $w is not correct on base (round $r)"
			fi
		done
		verdict=pass
		if ! bash bench/run.sh -compare "$work/base-$r-$w.json" "$work/head-$r-$w.json" \
			>"$work/cmp-$r-$w.txt" 2>&1; then
			verdict=fail
			failed[$w]=$((failed[$w] + 1))
		fi
		echo "round $r, ${order[0]} first, $w: $verdict"
		grep -E 'worse|changed|missing|bench:' "$work/cmp-$r-$w.txt" || true
	done
done

code=0
for w in "${workloads[@]}"; do
	verdict=pass
	if ((2 * failed[$w] > rounds)); then
		verdict=FAIL
		code=1
	fi
	echo "$w: ${failed[$w]}/$rounds pairs failed: $verdict"
done
echo "bench gate: $((SECONDS - start)) s"
exit $code
