#!/bin/sh
# Tier-1 verification: build, unit/property tests, and a CLI smoke test
# of the diagnostics contract (broken input => exit 1 + JSON diagnostics).
set -eu
cd "$(dirname "$0")"

dune build
dune runtest

# --- diagnostics smoke test -------------------------------------------
tmpdir=$(mktemp -d)
serve_pid=""
fault_pid=""
cleanup() {
  [ -n "$serve_pid" ] && kill "$serve_pid" 2> /dev/null || true
  [ -n "$fault_pid" ] && kill "$fault_pid" 2> /dev/null || true
  rm -rf "$tmpdir"
}
trap cleanup EXIT

# deliberately broken: a syntax error inside one module
cat > "$tmpdir/broken.v" <<'EOF'
module leaf (input [3:0] a, output [3:0] y);
  assign y = ;
endmodule
module top (input [3:0] x, output [3:0] o);
  leaf u1 (.a(x), .y(o));
endmodule
EOF

set +e
dune exec --no-build bin/alice_cli.exe -- redact "$tmpdir/broken.v" \
  --diag-format=json -o "$tmpdir/out.v" > "$tmpdir/diags.json" 2> /dev/null
code=$?
set -e

if [ "$code" -ne 1 ]; then
  echo "check.sh: expected exit code 1 on broken input, got $code" >&2
  exit 1
fi

# non-empty JSON array of diagnostics on stdout
if ! grep -q '"code":"E01' "$tmpdir/diags.json"; then
  echo "check.sh: expected a front-end diagnostic in JSON output, got:" >&2
  cat "$tmpdir/diags.json" >&2
  exit 1
fi

# --- parallel determinism: jobs=1 and jobs=4 must agree byte-for-byte --
dune exec --no-build bin/alice_cli.exe -- bench GCD --dump-source \
  > "$tmpdir/gcd.v"
for j in 1 4; do
  dune exec --no-build bin/alice_cli.exe -- redact "$tmpdir/gcd.v" \
    --jobs "$j" --diag-format=json -o "$tmpdir/out$j.v" \
    > "$tmpdir/diags$j.json" 2> /dev/null
done
if ! cmp -s "$tmpdir/out1.v" "$tmpdir/out4.v"; then
  echo "check.sh: redacted Verilog differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
if ! cmp -s "$tmpdir/diags1.json" "$tmpdir/diags4.json"; then
  echo "check.sh: diagnostics differ between --jobs 1 and --jobs 4" >&2
  exit 1
fi

# --- persistent cache: cold run then warm run must agree byte-for-byte --
for run in cold warm; do
  dune exec --no-build bin/alice_cli.exe -- redact "$tmpdir/gcd.v" \
    --cache-dir "$tmpdir/cache" --diag-format=json -o "$tmpdir/out_$run.v" \
    > "$tmpdir/diags_$run.json" 2> "$tmpdir/stderr_$run.txt"
done
if ! cmp -s "$tmpdir/out_cold.v" "$tmpdir/out_warm.v"; then
  echo "check.sh: redacted Verilog differs between cold and warm cache" >&2
  exit 1
fi
if ! cmp -s "$tmpdir/diags_cold.json" "$tmpdir/diags_warm.json"; then
  echo "check.sh: diagnostics differ between cold and warm cache" >&2
  exit 1
fi
# the warm run must hit the cache and recompute nothing
if ! grep -Eq 'cache: [1-9][0-9]* hits, 0 computed' "$tmpdir/stderr_warm.txt"; then
  echo "check.sh: warm run did not reuse the cache:" >&2
  cat "$tmpdir/stderr_warm.txt" >&2
  exit 1
fi

# --- subtree cache keys: a submodule edit must miss, a moved design hit
# top instantiates p, p instantiates child; only child's body changes
hier() {
  cat <<EOF
module child (input [7:0] a, input [7:0] b, output [7:0] o);
  assign o = $1;
endmodule
module p (input [7:0] a, input [7:0] b, output [7:0] o);
  child c0 (.a(a), .b(b), .o(o));
endmodule
module top (input [7:0] a, input [7:0] b, output [7:0] y);
  p p0 (.a(a), .b(b), .o(y));
endmodule
EOF
}
redact_hier() {
  dune exec --no-build bin/alice_cli.exe -- redact "$tmpdir/hier.v" \
    -c "$tmpdir/hier.yaml" "$@"
}
cat > "$tmpdir/hier.yaml" <<'EOF'
top: top
selected_outputs:
  - y
max_io_pins: 64
max_efpgas: 1
fabric:
  min_size: 2
  max_size: 20
EOF
edited='(a * b) + (a ^ (b << 1))'
hier 'a & b' > "$tmpdir/hier.v"
redact_hier --cache-dir "$tmpdir/hcache" -o "$tmpdir/hier_before.v" 2> /dev/null
hier "$edited" > "$tmpdir/hier.v"
redact_hier --cache-dir "$tmpdir/hcache" -o "$tmpdir/hier_warm.v" 2> /dev/null
redact_hier --no-cache -o "$tmpdir/hier_nocache.v" 2> /dev/null
if ! cmp -s "$tmpdir/hier_warm.v" "$tmpdir/hier_nocache.v"; then
  echo "check.sh: cache served a stale result after a submodule edit" >&2
  exit 1
fi
{ printf '\n\n\n'; hier "$edited"; } > "$tmpdir/hier.v"
redact_hier --cache-dir "$tmpdir/hcache" -o "$tmpdir/hier_shift.v" \
  2> "$tmpdir/hier_shift.txt"
if ! grep -Eq 'cache: [1-9][0-9]* hits, 0 computed' "$tmpdir/hier_shift.txt"; then
  echo "check.sh: a line shift recomputed characterizations:" >&2
  cat "$tmpdir/hier_shift.txt" >&2
  exit 1
fi

# --- measured selection: cold run attacks, warm run replays verdicts --
# cfg1 specialized to GCD (the unconstrained default config admits far
# larger candidates, which makes the attacks needlessly expensive here)
cat > "$tmpdir/gcd.yaml" <<'EOF'
top: gcd
selected_outputs:
  - result
max_io_pins: 64
max_efpgas: 2
fabric:
  min_size: 4
  max_size: 20
  target_utilization: 0.5
  min_clb_utilization: 0.3
attack_iterations: 16
EOF
for run in cold warm; do
  dune exec --no-build bin/alice_cli.exe -- redact "$tmpdir/gcd.v" \
    -c "$tmpdir/gcd.yaml" --score measured --attack-budget 2000 \
    --cache-dir "$tmpdir/mcache" --diag-format=json \
    -o "$tmpdir/mout_$run.v" \
    > "$tmpdir/mdiags_$run.json" 2> "$tmpdir/mstderr_$run.txt"
done
if ! cmp -s "$tmpdir/mout_cold.v" "$tmpdir/mout_warm.v"; then
  echo "check.sh: measured redaction differs between cold and warm cache" >&2
  exit 1
fi
# four attack domains load and search their sessions side by side; a
# cold run on them must give the serial cold run's bytes and verdicts
dune exec --no-build bin/alice_cli.exe -- redact "$tmpdir/gcd.v" \
  -c "$tmpdir/gcd.yaml" --score measured --attack-budget 2000 \
  --attack-jobs 4 --cache-dir "$tmpdir/mcache4" --diag-format=json \
  -o "$tmpdir/mout_jobs4.v" > /dev/null 2> "$tmpdir/mstderr_jobs4.txt"
verdict_table() {
  sed -n '/^attack: /,/^Design /{/^Design /!p;}' "$1"
}
verdict_table "$tmpdir/mstderr_cold.txt" > "$tmpdir/verdicts_jobs1.txt"
verdict_table "$tmpdir/mstderr_jobs4.txt" > "$tmpdir/verdicts_jobs4.txt"
if ! cmp -s "$tmpdir/mout_cold.v" "$tmpdir/mout_jobs4.v" \
  || [ ! -s "$tmpdir/verdicts_jobs1.txt" ] \
  || ! cmp -s "$tmpdir/verdicts_jobs1.txt" "$tmpdir/verdicts_jobs4.txt"; then
  echo "check.sh: measured redaction differs between --attack-jobs 1 and 4:" >&2
  diff "$tmpdir/verdicts_jobs1.txt" "$tmpdir/verdicts_jobs4.txt" >&2 || true
  exit 1
fi
# the cold run must actually have attacked candidates...
if ! grep -Eq 'attack: [1-9][0-9]* run, 0 cached' "$tmpdir/mstderr_cold.txt"; then
  echo "check.sh: measured cold run reported no attacks:" >&2
  cat "$tmpdir/mstderr_cold.txt" >&2
  exit 1
fi
# ...and the warm run must replay every verdict from the attack cache
if ! grep -Eq 'attack: 0 run, [1-9][0-9]* cached' "$tmpdir/mstderr_warm.txt"; then
  echo "check.sh: measured warm run re-attacked instead of using the cache:" >&2
  cat "$tmpdir/mstderr_warm.txt" >&2
  exit 1
fi
# the incremental solver session must actually reuse learnt work
if ! grep -Eq 'attack: .*, [1-9][0-9]* reused' "$tmpdir/mstderr_cold.txt"; then
  echo "check.sh: measured cold run reported no learnt-clause reuse:" >&2
  cat "$tmpdir/mstderr_cold.txt" >&2
  exit 1
fi
# ...and it surfaces one verdict line per valid candidate
if ! grep -Eq '^Cluster +Fabric +Verdict' "$tmpdir/mstderr_cold.txt"; then
  echo "check.sh: measured cold run printed no per-candidate verdicts:" >&2
  cat "$tmpdir/mstderr_cold.txt" >&2
  exit 1
fi
# measured scoring must rank differently from Eq. 1 on this design:
# the heuristic picks the best-utilized 5x5+4x4 solution, the measured
# ranking a 4x4+4x4 pair on the attack-resistant clusters
dune exec --no-build bin/alice_cli.exe -- redact "$tmpdir/gcd.v" \
  -c "$tmpdir/gcd.yaml" -o "$tmpdir/hout.v" > /dev/null 2>&1
if cmp -s "$tmpdir/mout_cold.v" "$tmpdir/hout.v"; then
  echo "check.sh: measured and heuristic picked the same GCD solution" >&2
  exit 1
fi

# --- advisor: a cold advise emits a ranked Pareto front; a warm rerun -
# --- resumes every candidate and renders byte-identically -------------
cat > "$tmpdir/advise.yaml" <<'EOF'
base:
  top: gcd
  selected_outputs:
    - result
  max_io_pins: 64
  max_efpgas: 2
  fabric:
    min_size: 4
    max_size: 16
    target_utilization: 0.5
    min_clb_utilization: 0.3
axes:
  lut_inputs: [4]
  max_fabric_size: [12, 16]
EOF
for run in cold warm; do
  dune exec --no-build bin/alice_cli.exe -- advise "$tmpdir/gcd.v" \
    -c "$tmpdir/advise.yaml" --format json \
    --cache-dir "$tmpdir/acache" \
    > "$tmpdir/advise_$run.json" 2> "$tmpdir/astderr_$run.txt"
done
# the cold run produced a non-empty ranked front...
if ! grep -q '"rank":1' "$tmpdir/advise_cold.json"; then
  echo "check.sh: cold advise emitted no ranked Pareto front:" >&2
  cat "$tmpdir/advise_cold.json" >&2
  exit 1
fi
# ...the warm rerun recomputed zero candidates...
if ! grep -Eq 'advise: [1-9][0-9]* of [1-9][0-9]* candidates resumed' \
  "$tmpdir/astderr_warm.txt"; then
  echo "check.sh: warm advise did not resume from checkpoints:" >&2
  cat "$tmpdir/astderr_warm.txt" >&2
  exit 1
fi
# ...and rendered byte-identically to the cold run
if ! cmp -s "$tmpdir/advise_cold.json" "$tmpdir/advise_warm.json"; then
  echo "check.sh: advise reports differ between cold and warm cache" >&2
  exit 1
fi
# ...and the store is a log, not a file per entry: the cold run appends
# to one segment, the warm run writes nothing
files=$(find "$tmpdir/acache" -type f -not -path '*/quarantine/*' | wc -l)
if [ "$files" -gt 2 ]; then
  echo "check.sh: a cold and a warm advise left $files cache files:" >&2
  find "$tmpdir/acache" -type f >&2
  exit 1
fi

# --- staged characterization: every point of a cold grid equals the ---
# --- same point advised alone, and the grid synthesizes each of GCD's -
# --- 9 modules once: a larger cluster is spliced from their pieces ----
{
  sed '/^axes:/,$d' "$tmpdir/advise.yaml"
  cat <<'EOF'
axes:
  lut_inputs: [4, 6]
  max_fabric_size: [12, 16]
  target_utilization: [0.5, 0.45]
EOF
} > "$tmpdir/grid.yaml"
dune exec --no-build bin/alice_cli.exe -- advise "$tmpdir/gcd.v" \
  -c "$tmpdir/grid.yaml" --no-cache --format json \
  > "$tmpdir/grid.json" 2> "$tmpdir/grid_stderr.txt"
if ! grep -Eq '^stages: netlist 9 computed, [1-9][0-9]* hits' \
  "$tmpdir/grid_stderr.txt"; then
  echo "check.sh: the advise grid did not synthesize each module once:" >&2
  cat "$tmpdir/grid_stderr.txt" >&2
  exit 1
fi
# no axis is a front-end field: the eight points parse, elaborate,
# filter and cluster the design once
if ! grep -Eq '^stages: .*; front 1 computed, 7 hits$' \
  "$tmpdir/grid_stderr.txt"; then
  echo "check.sh: the advise grid re-ran the front end across points:" >&2
  cat "$tmpdir/grid_stderr.txt" >&2
  exit 1
fi
# one line per candidate: k, width bound, utilization, fabrics and metrics
advise_rows() {
  sed 's/{"name":/\n&/g' "$1" \
    | sed -n 's/.*"lut_inputs":\([0-9]*\),"max_fabric_size":\([0-9]*\),"target_utilization":\([^,]*\),.*\("fabrics":.*\),"dominated_by".*/\1 \2 \3 \4/p' \
    | sort -u
}
advise_rows "$tmpdir/grid.json" > "$tmpdir/grid_rows.txt"
for k in 4 6; do
  for w in 12 16; do
    for u in 0.5 0.45; do
      sed -e "s/^  lut_inputs: .*/  lut_inputs: [$k]/" \
        -e "s/^  max_fabric_size: .*/  max_fabric_size: [$w]/" \
        -e "s/^  target_utilization: .*/  target_utilization: [$u]/" \
        "$tmpdir/grid.yaml" > "$tmpdir/point.yaml"
      dune exec --no-build bin/alice_cli.exe -- advise "$tmpdir/gcd.v" \
        -c "$tmpdir/point.yaml" --no-cache --format json \
        > "$tmpdir/point.json" 2> /dev/null
      row=$(advise_rows "$tmpdir/point.json")
      if [ "$(printf '%s\n' "$row" | grep -c "^$k $w ")" -ne 1 ] \
        || ! grep -Fqx "$row" "$tmpdir/grid_rows.txt"; then
        echo "check.sh: advise k=$k w=$w u=$u alone differs from its grid entry:" >&2
        printf '%s\n' "$row" >&2
        cat "$tmpdir/grid_rows.txt" >&2
        exit 1
      fi
    done
  done
done

# --- sweep checkpoints: a corrupt one is recomputed with a W0702 -----
# --- tagged with its entry's config ---------------------------------
cat > "$tmpdir/sweep.yaml" <<'EOF'
base:
  top: gcd
  selected_outputs:
    - result
  max_io_pins: 64
  fabric:
    min_size: 4
    max_size: 16
    target_utilization: 0.5
    min_clb_utilization: 0.3
sweep:
  - name: one-efpga
    max_efpgas: 1
  - name: two-efpga
    max_efpgas: 2
EOF
sweep_gcd() {
  dune exec --no-build bin/alice_cli.exe -- sweep "$tmpdir/gcd.v" \
    -c "$tmpdir/sweep.yaml" --cache-dir "$tmpdir/scache" \
    --diag-format=json > "$1" 2> /dev/null
}
sweep_gcd "$tmpdir/sweep_cold.txt"
# checkpoints share the store with characterizations; a record's
# payload carries its key, and its header line starts ALICE-CACHE
segment=$(grep -l 'sweep-point v' "$tmpdir/scache/v2"/*.log 2> /dev/null \
  | head -n 1)
if [ -z "$segment" ]; then
  echo "check.sh: sweep wrote no checkpoints" >&2
  exit 1
fi
key_at=$(grep -boa 'sweep-point v' "$segment" | head -n 1 | cut -d: -f1)
record_at=$(grep -boa 'ALICE-CACHE 2 ' "$segment" | cut -d: -f1 \
  | awk -v key="$key_at" '$1 < key { at = $1 } END { print at }')
victim="$segment@$record_at"
# rot the checkpoint's payload in place: its key no longer checksums
printf 'rotted' | dd of="$segment" bs=1 seek="$key_at" conv=notrunc \
  2> /dev/null
sweep_gcd "$tmpdir/sweep_rot.txt"
# the one entry not resumed is the corrupted checkpoint's
recomputed=$(awk '$NF == "no" { print $1 }' "$tmpdir/sweep_rot.txt")
if [ -z "$recomputed" ] || ! grep -q \
  "\"code\":\"W0702\".*\"config\":\"$recomputed\",\"entry\":\"$victim\"" \
  "$tmpdir/sweep_rot.txt"; then
  echo "check.sh: corrupt sweep checkpoint $victim recomputed without" \
    "a W0702 for its entry:" >&2
  cat "$tmpdir/sweep_rot.txt" >&2
  exit 1
fi

# --- cache keys: an entry that changes only a field selection reads ---
# --- shares every characterization, and another -j resumes the sweep --
cat > "$tmpdir/floor.yaml" <<'EOF'
base:
  top: gcd
  selected_outputs:
    - result
  max_io_pins: 64
  max_efpgas: 2
sweep:
  - name: floor0
    fabric:
      min_clb_utilization: 0.0
  - name: floor3
    fabric:
      min_clb_utilization: 0.3
EOF
floor_sweep() {
  dune exec --no-build bin/alice_cli.exe -- sweep "$tmpdir/gcd.v" \
    -c "$tmpdir/floor.yaml" --cache-dir "$tmpdir/fcache" -j "$1" > "$2" 2>&1
}
floor_sweep 1 "$tmpdir/floor_cold.txt"
# the computed column of each entry, and the stores of the whole sweep:
# the first entry's characterizations plus both entries' checkpoints
first=$(awk '$1 == "floor0" { print $8 }' "$tmpdir/floor_cold.txt")
second=$(awk '$1 == "floor3" { print $8 }' "$tmpdir/floor_cold.txt")
stores=$(sed -n 's/^cache store: .* \([0-9][0-9]*\) stores,.*/\1/p' \
  "$tmpdir/floor_cold.txt")
if [ -z "$first" ] || [ "$first" -eq 0 ] || [ "$second" != 0 ] \
  || [ "$stores" != "$((first + 2))" ]; then
  echo "check.sh: an entry differing only in min_clb_utilization" \
    "recomputed or re-stored characterizations:" >&2
  cat "$tmpdir/floor_cold.txt" >&2
  exit 1
fi
floor_sweep 2 "$tmpdir/floor_j2.txt"
if [ "$(awk '$NF == "yes"' "$tmpdir/floor_j2.txt" | wc -l)" -ne 2 ]; then
  echo "check.sh: the sweep rerun with -j 2 did not resume every entry:" >&2
  cat "$tmpdir/floor_j2.txt" >&2
  exit 1
fi

# --- one byte budget bounds every entry: characterizations, attack ----
# --- verdicts and checkpoints share one store that cache gc examines --
printf 'cache_max_bytes: 4096\n' > "$tmpdir/budget.yaml"
dune exec --no-build bin/alice_cli.exe -- redact "$tmpdir/gcd.v" \
  -c "$tmpdir/budget.yaml" --score measured --cache-dir "$tmpdir/bcache" \
  -o /dev/null > /dev/null 2>&1
# the store's segments under the cache root, at any depth, outside
# quarantine
bcache_segments() {
  find "$tmpdir/bcache" -name '*.log' -not -path '*/quarantine/*' "$@"
}
bcache_bytes() {
  bcache_segments -exec cat {} + | wc -c
}
# the store's entries: its live records, one per key digest (DESIGN.md,
# "On-disk format")
bcache_entries() {
  bcache_segments -exec cat {} + \
    | grep -aoE 'ALICE-CACHE 2 [0-9a-f]{32}' | sort -u | wc -l
}
entries=$(bcache_entries)
bytes=$(bcache_bytes)
if [ -e "$tmpdir/bcache/attack" ] || [ -e "$tmpdir/bcache/sweep" ] \
  || [ "$entries" -eq 0 ] || [ "$bytes" -gt 4096 ]; then
  echo "check.sh: a 4096-byte cache budget left $entries entries," \
    "$bytes bytes:" >&2
  ls -R "$tmpdir/bcache" >&2
  exit 1
fi
dune exec --no-build bin/alice_cli.exe -- cache gc \
  --cache-dir "$tmpdir/bcache" --max-bytes 1024 > "$tmpdir/bgc.txt"
examined=$(sed -n 's/.*: \([0-9][0-9]*\) examined,.*/\1/p' "$tmpdir/bgc.txt")
if [ "$examined" != "$entries" ] || [ "$(bcache_bytes)" -gt 1024 ]; then
  echo "check.sh: cache gc --max-bytes 1024 over $entries entries left" \
    "$(bcache_bytes) bytes:" >&2
  cat "$tmpdir/bgc.txt" >&2
  exit 1
fi
# a negative budget is refused and removes nothing
entries=$(bcache_entries)
set +e
dune exec --no-build bin/alice_cli.exe -- cache gc \
  --cache-dir "$tmpdir/bcache" --max-bytes=-1 --diag-format=json \
  > "$tmpdir/bgc_neg.json" 2> /dev/null
code=$?
set -e
if [ "$code" -ne 1 ] || ! grep -q '"code":"E0602"' "$tmpdir/bgc_neg.json" \
  || [ "$(bcache_entries)" -ne "$entries" ]; then
  echo "check.sh: cache gc --max-bytes=-1 exited $code and left" \
    "$(bcache_entries) of $entries entries:" >&2
  cat "$tmpdir/bgc_neg.json" >&2
  exit 1
fi

# --- redaction service: 8 concurrent clients, warm stats, streaming ---
# --- sweep, clean drain — once per transport (unix + tcp) -------------
# the daemon is exercised through the built binary directly: `dune exec`
# serializes on the build lock, which would defeat concurrent clients
ALICE=_build/default/bin/alice_cli.exe

# --- CLI regressions: flags a command cannot honour are refused -------
# serve takes only --jobs and the cache flags; scoring comes from its
# base config or the request, so --score is a usage error rather than a
# knob that silently does nothing (the timeout only bounds a regression)
set +e
timeout 10 "$ALICE" serve --socket "$tmpdir/noscore.sock" --score measured \
  > /dev/null 2> "$tmpdir/noscore.txt"
set -e
if ! grep -q "unknown option '--score'" "$tmpdir/noscore.txt"; then
  echo "check.sh: serve accepted --score:" >&2
  cat "$tmpdir/noscore.txt" >&2
  exit 1
fi
# attack rejects a non-positive conflict budget as the flow does
set +e
"$ALICE" attack "$tmpdir/gcd.v" -m gcd_ctrl --attack-budget 0 \
  --diag-format=json > "$tmpdir/attack0.json" 2> /dev/null
code=$?
set -e
if [ "$code" -ne 1 ] || ! grep -q '"code":"E0602"' "$tmpdir/attack0.json"; then
  echo "check.sh: attack --attack-budget 0 exited $code without E0602:" >&2
  cat "$tmpdir/attack0.json" >&2
  exit 1
fi
# an elaboration fault is malformed input whichever command meets it:
# inspect elaborates through the flow's normalizer, so a
# self-instantiating top is an E0100, not a configuration error
printf 'module top(input a, output y); top u (.a(a), .y(y)); endmodule\n' \
  > "$tmpdir/selfinst.v"
set +e
"$ALICE" inspect "$tmpdir/selfinst.v" --diag-format=json \
  > "$tmpdir/selfinst.json" 2> /dev/null
code=$?
set -e
if [ "$code" -ne 1 ] || ! grep -q '"code":"E0100"' "$tmpdir/selfinst.json"; then
  echo "check.sh: inspect of a self-instantiating top exited $code without E0100:" >&2
  cat "$tmpdir/selfinst.json" >&2
  exit 1
fi
# the attack's search is pinned: a change to how replays are encoded or
# solved that keeps every decision keeps these DIPs, conflicts and
# decisions, and each attack recovers a key proved correct; the
# subtractor's conflicts pass the 1e100 activity rescale
while read -r module dips conflicts decisions; do
  "$ALICE" attack "$tmpdir/gcd.v" -m "$module" > "$tmpdir/attack_$module.txt"
  if ! grep -q "^attack converged after $dips distinguishing inputs ($conflicts conflicts, $decisions decisions, .*recovered key is functionally correct$" \
      "$tmpdir/attack_$module.txt"; then
    echo "check.sh: attack -m $module did not converge after $dips DIPs, $conflicts conflicts and $decisions decisions to a correct key:" >&2
    cat "$tmpdir/attack_$module.txt" >&2
    exit 1
  fi
done <<'EOF'
gcd_ctrl 25 121 1118
subtractor 69 14427 46503
EOF
# selection keeps |S| and its best, never S itself: 14 identical 12-pin
# leaves under two 64-pin eFPGAs have 978,628 solutions, and redacting
# them fits in 512 MB of address space (keeping S took about 1 GB)
ports="" insts="" i=0
while [ "$i" -lt 14 ]; do
  ports="$ports${ports:+, }input [5:0] a$i, output [5:0] y$i"
  insts="$insts  leaf u$i (.a(a$i), .y(y$i));
"
  i=$((i + 1))
done
printf '%s\nmodule top(%s);\n%sendmodule\n' \
  "module leaf(input [5:0] a, output [5:0] y); assign y = a ^ 6'h2a; endmodule" \
  "$ports" "$insts" > "$tmpdir/leaves14.v"
printf 'top: top\nmax_io_pins: 64\nmax_efpgas: 2\nfabric:\n  min_size: 2\n  max_size: 12\n' \
  > "$tmpdir/leaves14.yaml"
set +e
( ulimit -v 524288
  "$ALICE" redact "$tmpdir/leaves14.v" -c "$tmpdir/leaves14.yaml" \
    --no-cache --jobs 1 -o /dev/null ) > "$tmpdir/leaves14.txt" 2>&1
code=$?
set -e
if [ "$code" -ne 0 ] || ! grep -q " 978628 4x4, 4x4 " "$tmpdir/leaves14.txt"; then
  echo "check.sh: redact of 14 leaves in 512 MB exited $code without |S| = 978628 on 4x4, 4x4:" >&2
  cat "$tmpdir/leaves14.txt" >&2
  exit 1
fi

# serve refuses timeouts it cannot honour, before binding: a zero idle
# timeout would mean none at all, a non-positive deadline skips every
# cluster
for flag in --idle-timeout --deadline; do
  set +e
  timeout 10 "$ALICE" serve --socket "$tmpdir/badtime.sock" "$flag" 0 \
    --diag-format=json > "$tmpdir/badtime.json" 2> /dev/null
  code=$?
  set -e
  if [ "$code" -ne 1 ] || ! grep -q '"code":"E0602"' "$tmpdir/badtime.json"; then
    echo "check.sh: serve $flag 0 exited $code without E0602:" >&2
    cat "$tmpdir/badtime.json" >&2
    exit 1
  fi
done

# so does the client, before opening a socket: a zero receive timeout
# would mean none at all, and the client would wait forever
set +e
"$ALICE" client --timeout 0 --op ping -s "unix:$tmpdir/absent.sock" \
  --diag-format=json > "$tmpdir/client0.json" 2> /dev/null
code=$?
set -e
if [ "$code" -ne 1 ] || ! grep -q '"code":"E0602"' "$tmpdir/client0.json"; then
  echo "check.sh: client --timeout 0 exited $code without E0602:" >&2
  cat "$tmpdir/client0.json" >&2
  exit 1
fi

# an empty cache directory is refused (E0602), from the flag and from
# cache gc alike, before anything is written: it would root the store
# at the working directory (./v2, and a gc of ./v1)
mkdir "$tmpdir/emptyroot"
refuses_empty_root() {
  # $@: the command, run from an empty directory
  set +e
  (cd "$tmpdir/emptyroot" && "$@" --cache-dir "" --diag-format=json) \
    > "$tmpdir/emptyroot.json" 2> /dev/null
  code=$?
  set -e
  if [ "$code" -ne 1 ] || ! grep -q '"code":"E0602"' "$tmpdir/emptyroot.json" \
    || [ -n "$(ls -A "$tmpdir/emptyroot")" ]; then
    echo "check.sh: $* --cache-dir '' exited $code without E0602, or wrote:" >&2
    cat "$tmpdir/emptyroot.json" >&2
    ls -A "$tmpdir/emptyroot" >&2
    exit 1
  fi
}
refuses_empty_root "$PWD/$ALICE" redact "$tmpdir/gcd.v"
refuses_empty_root "$PWD/$ALICE" cache gc

# simulate prints an output wider than an int from its bits: 2^69 + 1
# on 70 bits, not the 33 an int wraps it to
printf "module top(output [69:0] y);\n  assign y = {1'b1, 34'd0, 34'd0, 1'b1};\nendmodule\n" \
  > "$tmpdir/wide70.v"
"$ALICE" simulate "$tmpdir/wide70.v" --cycles 1 > "$tmpdir/wide70.txt"
if ! grep -qx "y = 70'h200000000000000001" "$tmpdir/wide70.txt"; then
  echo "check.sh: simulate printed a 70-bit output wrong:" >&2
  cat "$tmpdir/wide70.txt" >&2
  exit 1
fi

# a utilization outside (0, 1] is a configuration error (E0602), refused
# before any characterization -- not a design without a feasible
# redaction (E0801)
printf 'fabric:\n  target_utilization: nan\n' > "$tmpdir/nan.yaml"
set +e
"$ALICE" redact "$tmpdir/gcd.v" -c "$tmpdir/nan.yaml" --no-cache \
  --diag-format=json > "$tmpdir/nan.json" 2> /dev/null
code=$?
set -e
if [ "$code" -ne 1 ] || ! grep -q '"code":"E0602"' "$tmpdir/nan.json" \
  || grep -q '"code":"E0801"' "$tmpdir/nan.json"; then
  echo "check.sh: redact with target_utilization: nan exited $code without E0602:" >&2
  cat "$tmpdir/nan.json" >&2
  exit 1
fi

# so are a pin or eFPGA budget below 1 and a selected output the top
# module lacks: each would empty the run and end in an E0801 blaming
# the design
printf 'max_io_pins: 0\n' > "$tmpdir/bad_pins.yaml"
printf 'max_efpgas: 0\n' > "$tmpdir/bad_efpgas.yaml"
printf 'top: gcd\nselected_outputs:\n  - no_such_output\n' \
  > "$tmpdir/bad_outputs.yaml"
for bad in pins efpgas outputs; do
  set +e
  "$ALICE" redact "$tmpdir/gcd.v" -c "$tmpdir/bad_$bad.yaml" --no-cache \
    --diag-format=json > "$tmpdir/bad_$bad.json" 2> /dev/null
  code=$?
  set -e
  if [ "$code" -ne 1 ] || ! grep -q '"code":"E0602"' "$tmpdir/bad_$bad.json" \
    || grep -q '"code":"E0801"' "$tmpdir/bad_$bad.json"; then
    echo "check.sh: redact with bad_$bad.yaml exited $code without E0602:" >&2
    cat "$tmpdir/bad_$bad.json" >&2
    exit 1
  fi
done

# a nan weight or deadline and an empty fabric window are refused the
# same way, before any characterization (no cache: line): nan would rank
# every solution on nan scores or switch the deadline off, and an empty
# window characterizes every cluster only to report an E0801
gcd_cfg1='top: gcd\nselected_outputs:\n  - result\nmax_io_pins: 64\nmax_efpgas: 2\n'
n=0
for bad in 'alpha: nan' 'characterize_deadline_s: nan' \
  'score: measured\nattack_area_weight: nan' \
  'fabric:\n  min_size: 9\n  max_size: 5' 'fabric:\n  max_size: 0'; do
  n=$((n + 1))
  printf "$gcd_cfg1$bad\n" > "$tmpdir/refused$n.yaml"
  set +e
  "$ALICE" redact "$tmpdir/gcd.v" -c "$tmpdir/refused$n.yaml" --no-cache \
    --diag-format=json > "$tmpdir/refused$n.json" 2> "$tmpdir/refused$n.txt"
  code=$?
  set -e
  if [ "$code" -ne 1 ] || ! grep -q '"code":"E0602"' "$tmpdir/refused$n.json" \
    || grep -q '"code":"E0801"' "$tmpdir/refused$n.json" \
    || grep -q '^cache:' "$tmpdir/refused$n.txt"; then
    echo "check.sh: redact with '$bad' exited $code without an E0602" \
      "before characterization:" >&2
    cat "$tmpdir/refused$n.json" "$tmpdir/refused$n.txt" >&2
    exit 1
  fi
done

# sweep and advise documents the readers cannot take are refused before
# any characterization (no stages: or cache line): an inline {...} map
# is a parse error (E0601), since the YAML subset has no flow maps, and
# a base or sweep entry that is not a mapping is E0602. Each used to run
# on the default configuration and exit 0.
printf 'sweep:\n  - {name: a, max_efpgas: 1}\n  - {name: b, max_efpgas: 2}\n' \
  > "$tmpdir/shape1.yaml"
printf 'base: {max_efpgas: 1}\n' > "$tmpdir/shape2.yaml"
printf 'axes: {lut_inputs: [4]}\n' > "$tmpdir/shape3.yaml"
printf 'base: 5\nsweep:\n  - name: a\n' > "$tmpdir/shape4.yaml"
printf 'sweep:\n  - 5\n' > "$tmpdir/shape5.yaml"
for shape in sweep:1:E0601 advise:2:E0601 advise:3:E0601 sweep:4:E0602 \
  sweep:5:E0602; do
  cmd=${shape%%:*}
  rest=${shape#*:}
  n=${rest%%:*}
  want=${rest#*:}
  set +e
  "$ALICE" "$cmd" "$tmpdir/gcd.v" -c "$tmpdir/shape$n.yaml" \
    --cache-dir "$tmpdir/shapecache" --diag-format=json \
    > "$tmpdir/shape$n.json" 2> "$tmpdir/shape$n.txt"
  code=$?
  set -e
  if [ "$code" -ne 1 ] || ! grep -q "\"code\":\"$want\"" "$tmpdir/shape$n.json" \
    || grep -Eq '^(stages:|cache)' "$tmpdir/shape$n.txt"; then
    echo "check.sh: $cmd with shape$n.yaml exited $code without an $want" \
      "before characterization:" >&2
    cat "$tmpdir/shape$n.yaml" "$tmpdir/shape$n.json" "$tmpdir/shape$n.txt" >&2
    exit 1
  fi
done

"$ALICE" bench SOC --dump-source > "$tmpdir/soc.v"
cat > "$tmpdir/soc.yaml" <<'EOF'
top: soc
selected_outputs:
  - resp
fabric:
  min_size: 4
  max_size: 20
  min_clb_utilization: 0.3
EOF

# single-shot reference for byte-identity, and its count of unique
# characterization keys
"$ALICE" redact "$tmpdir/soc.v" -c "$tmpdir/soc.yaml" --no-cache \
  -o "$tmpdir/ref.v" 2> "$tmpdir/ref.txt"
ref_unique=$(sed -n 's/^cache: .* \([0-9][0-9]*\) unique$/\1/p' "$tmpdir/ref.txt")
if [ -z "$ref_unique" ]; then
  echo "check.sh: the single-shot SoC redaction printed no cache line:" >&2
  cat "$tmpdir/ref.txt" >&2
  exit 1
fi

# a two-point sweep request for the streaming check (file path is read
# by the server process, which runs from this directory)
printf '{"v":1,"op":"sweep","file":"%s","sweep":[{"name":"one","max_efpgas":1},{"name":"two","max_efpgas":2}]}\n' \
  "$tmpdir/soc.v" > "$tmpdir/sweep_req.json"

server_smoke() {
  # $1: label; $2: --listen endpoint. tcp:127.0.0.1:0 binds an
  # ephemeral port, so the effective endpoint is read back from the
  # serve log rather than assumed.
  label=$1
  listen=$2
  log="$tmpdir/serve_$label.log"
  # --jobs 1: 8 concurrent requests each spawning the full recommended
  # domain count would oversubscribe (and can hit the OCaml domain cap)
  "$ALICE" serve --listen "$listen" -c "$tmpdir/soc.yaml" --jobs 1 \
    --cache-dir "$tmpdir/srvcache_$label" > /dev/null 2> "$log" &
  serve_pid=$!

  # effective endpoint + live listener
  i=0
  ep=""
  while [ -z "$ep" ]; do
    ep=$(sed -n 's/^alice: serving on \([^ ]*\) .*/\1/p' "$log" | head -n 1)
    if [ -z "$ep" ]; then
      i=$((i + 1))
      if [ "$i" -ge 50 ]; then
        echo "check.sh: $label server printed no endpoint; log:" >&2
        cat "$log" >&2
        exit 1
      fi
      sleep 0.1
    fi
  done
  i=0
  until "$ALICE" client --connect "$ep" --op ping > /dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
      echo "check.sh: $label server did not come up; log:" >&2
      cat "$log" >&2
      exit 1
    fi
    sleep 0.1
  done

  # 8 concurrent redact requests, all against the one shared engine
  client_pids=""
  for n in 1 2 3 4 5 6 7 8; do
    "$ALICE" client --connect "$ep" --redact "$tmpdir/soc.v" \
      --extract verilog -o "$tmpdir/srv_$label$n.v" > /dev/null 2>&1 &
    client_pids="$client_pids $!"
  done
  wait_failed=0
  for job in $client_pids; do
    wait "$job" || wait_failed=1
  done
  if [ "$wait_failed" -ne 0 ]; then
    echo "check.sh: a concurrent $label client request failed; log:" >&2
    cat "$log" >&2
    exit 1
  fi
  for n in 1 2 3 4 5 6 7 8; do
    if ! cmp -s "$tmpdir/ref.v" "$tmpdir/srv_$label$n.v"; then
      echo "check.sh: served $label redaction $n differs from single-shot" >&2
      exit 1
    fi
  done

  # a warm repeat must be served from the shared cache...
  "$ALICE" client --connect "$ep" --redact "$tmpdir/soc.v" \
    --extract verilog -o "$tmpdir/warm_$label.v" > /dev/null
  cmp -s "$tmpdir/ref.v" "$tmpdir/warm_$label.v" || {
    echo "check.sh: warm served $label redaction differs" >&2; exit 1; }
  # ...and stats must report nonzero cache hits
  "$ALICE" client --connect "$ep" --op stats > "$tmpdir/stats_$label.json"
  if ! grep -q '"hits":[1-9]' "$tmpdir/stats_$label.json"; then
    echo "check.sh: $label server stats report no cache hits:" >&2
    cat "$tmpdir/stats_$label.json" >&2
    exit 1
  fi
  # ...and the 9 requests computed and stored each key once: a request
  # that finds a key another is computing waits for it
  counts=$(sed -n 's/.*"cache":{"hits":[0-9]*,"computed":\([0-9]*\),.*"disk":{[^}]*"stores":\([0-9]*\),.*/\1 \2/p' \
    "$tmpdir/stats_$label.json")
  if [ "$counts" != "$ref_unique $ref_unique" ]; then
    echo "check.sh: $label server computed and stored '$counts' for $ref_unique unique keys:" >&2
    cat "$tmpdir/stats_$label.json" >&2
    exit 1
  fi
  # ...and the 8 concurrent cold writers lost no cache write: a shared
  # temp file made one writer's rename fail (W0703) and disable writes
  if ! grep -q '"warnings":0' "$tmpdir/stats_$label.json" ||
    ! grep -q '"failures":0' "$tmpdir/stats_$label.json"; then
    echo "check.sh: $label server stats report cache warnings/failures:" >&2
    cat "$tmpdir/stats_$label.json" >&2
    exit 1
  fi

  # streaming sweep: each point arrives as its own row frame before the
  # terminal done frame
  "$ALICE" client --connect "$ep" --stream "$tmpdir/sweep_req.json" \
    > "$tmpdir/sweep_$label.json"
  rows=$(grep -c '"event":"row"' "$tmpdir/sweep_$label.json" || true)
  if [ "$rows" -ne 2 ]; then
    echo "check.sh: $label streaming sweep sent $rows row frames, want 2:" >&2
    cat "$tmpdir/sweep_$label.json" >&2
    exit 1
  fi
  if ! grep -q '"event":"done"' "$tmpdir/sweep_$label.json"; then
    echo "check.sh: $label streaming sweep sent no terminal frame" >&2
    cat "$tmpdir/sweep_$label.json" >&2
    exit 1
  fi

  # clean drain: shutdown request => daemon exits 0
  "$ALICE" client --connect "$ep" --op shutdown > /dev/null
  if ! wait "$serve_pid"; then
    echo "check.sh: $label server exited nonzero; log:" >&2
    cat "$log" >&2
    exit 1
  fi
  serve_pid=""
}

sock="$tmpdir/alice.sock"
server_smoke unix "unix:$sock"
if [ -e "$sock" ]; then
  echo "check.sh: socket file survived shutdown" >&2
  exit 1
fi
server_smoke tcp "tcp:127.0.0.1:0"

# --- fault smoke: the service self-heals under an injected plan -------
# one connection thread is killed mid-request, the fourth connection's
# thread cannot be started (refused as busy) and one cache write is
# torn; the clients retry with backoff and every response must still
# be byte-identical to the single-shot reference
fsock="$tmpdir/alice_fault.sock"
ALICE_FAULT_PLAN='server.worker=kill@3;server.spawn=fail@4;cache.write=torn@2' \
  "$ALICE" serve --socket "$fsock" -c "$tmpdir/soc.yaml" --jobs 1 \
  --cache-dir "$tmpdir/faultcache" > /dev/null 2> "$tmpdir/serve_fault.log" &
fault_pid=$!

i=0
until "$ALICE" client --socket "$fsock" --op ping --retry 6 > /dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "check.sh: fault-plan server did not come up; log:" >&2
    cat "$tmpdir/serve_fault.log" >&2
    exit 1
  fi
  sleep 0.1
done

client_pids=""
for n in 1 2 3 4 5 6 7 8; do
  "$ALICE" client --socket "$fsock" --redact "$tmpdir/soc.v" --retry 6 \
    --extract verilog -o "$tmpdir/flt$n.v" > /dev/null 2>&1 &
  client_pids="$client_pids $!"
done
wait_failed=0
for job in $client_pids; do
  wait "$job" || wait_failed=1
done
if [ "$wait_failed" -ne 0 ]; then
  echo "check.sh: a client failed under the fault plan; server log:" >&2
  cat "$tmpdir/serve_fault.log" >&2
  exit 1
fi
for n in 1 2 3 4 5 6 7 8; do
  if ! cmp -s "$tmpdir/ref.v" "$tmpdir/flt$n.v"; then
    echo "check.sh: redaction $n differs under the fault plan" >&2
    exit 1
  fi
done

# the thread kill was contained, logged and counted, and the server
# kept serving
"$ALICE" client --socket "$fsock" --op stats --retry 6 \
  > "$tmpdir/stats_fault.json"
if ! grep -q '"crashed":[1-9]' "$tmpdir/stats_fault.json"; then
  echo "check.sh: fault-plan stats report no contained thread crash:" >&2
  cat "$tmpdir/stats_fault.json" >&2
  exit 1
fi
if ! grep -q '\[E1005\]' "$tmpdir/serve_fault.log"; then
  echo "check.sh: thread crash was not logged as E1005" >&2
  cat "$tmpdir/serve_fault.log" >&2
  exit 1
fi
# the refused spawn was answered as busy, counted, and retried
if ! grep -q '"rejected":{"busy":[1-9]' "$tmpdir/stats_fault.json"; then
  echo "check.sh: fault-plan stats report no busy refusal:" >&2
  cat "$tmpdir/stats_fault.json" >&2
  exit 1
fi
if ! grep -q '"server.spawn":1' "$tmpdir/stats_fault.json"; then
  echo "check.sh: thread spawn failure was not injected/recorded:" >&2
  cat "$tmpdir/stats_fault.json" >&2
  exit 1
fi
# the torn cache write fired and was contained (counted, not fatal)
if ! grep -q '"cache.write":[1-9]' "$tmpdir/stats_fault.json"; then
  echo "check.sh: torn cache write was not injected/recorded:" >&2
  cat "$tmpdir/stats_fault.json" >&2
  exit 1
fi

# cache-gc quarantines a record corrupted at rest, and the server keeps
# serving (the torn *write* above was already repaired on first read, so
# rot a stored record's payload in place to exercise the gc validation
# pass)
victim=$(find "$tmpdir/faultcache" -name '*.log' \
  -not -path '*/quarantine/*' | head -n 1)
if [ -z "$victim" ]; then
  echo "check.sh: fault-plan server wrote no cache entries" >&2
  exit 1
fi
# rot the segment's last record: the newest record of its key, so the
# one the index holds. Its payload follows its header line
record_at=$(grep -boa 'ALICE-CACHE 2 ' "$victim" | tail -n 1 | cut -d: -f1)
header=$(tail -c +"$((record_at + 1))" "$victim" | head -n 1 | wc -c)
printf 'rotted' | dd of="$victim" bs=1 seek="$((record_at + header))" \
  conv=notrunc 2> /dev/null
"$ALICE" client --socket "$fsock" --op cache-gc --retry 6 \
  > "$tmpdir/gc_fault.json"
if ! grep -q '"quarantined":[1-9]' "$tmpdir/gc_fault.json"; then
  echo "check.sh: cache-gc did not quarantine the corrupted entry:" >&2
  cat "$tmpdir/gc_fault.json" >&2
  exit 1
fi
"$ALICE" client --socket "$fsock" --redact "$tmpdir/soc.v" --retry 6 \
  --extract verilog -o "$tmpdir/flt_after_gc.v" > /dev/null
cmp -s "$tmpdir/ref.v" "$tmpdir/flt_after_gc.v" || {
  echo "check.sh: redaction differs after cache-gc" >&2; exit 1; }

# clean drain under the fault plan too
"$ALICE" client --socket "$fsock" --op shutdown --retry 6 > /dev/null
if ! wait "$fault_pid"; then
  echo "check.sh: fault-plan server exited nonzero; log:" >&2
  cat "$tmpdir/serve_fault.log" >&2
  exit 1
fi
fault_pid=""

# --- paper harness: the tables, figure and SoC remark still run -------
# in a scratch directory, so the snapshot this writes does not clobber a
# committed BENCH_<rev>.json at the repo root
BENCH="$PWD/_build/default/bench/main.exe"
mkdir "$tmpdir/paper"
if ! ( cd "$tmpdir/paper" && "$BENCH" table1 table2 figure4 overhead soc \
  > "$tmpdir/paper/bench.log" 2>&1 ); then
  echo "check.sh: bench table1 table2 figure4 overhead soc failed; log:" >&2
  cat "$tmpdir/paper/bench.log" >&2
  exit 1
fi
paper_json=$(find "$tmpdir/paper" -name 'BENCH_*.json' | head -n 1)
for s in table1 table2 figure4 overhead soc; do
  if [ -z "$paper_json" ] || ! grep -q "\"$s\":{" "$paper_json"; then
    echo "check.sh: bench snapshot has no $s section:" >&2
    cat "$tmpdir/paper/bench.log" >&2
    exit 1
  fi
done
# a section the harness no longer has is refused with exit 2
set +e
( cd "$tmpdir/paper" && "$BENCH" micro > /dev/null 2>&1 )
code=$?
set -e
if [ "$code" -ne 2 ]; then
  echo "check.sh: bench micro exited $code, want 2 (no such section)" >&2
  exit 1
fi

# --- mixed-load bench: cheap ops must stay fast under saturation ------
# last, so a failure of this timing gate cannot hide the steps above
# run from $tmpdir so the snapshot this writes does not clobber a
# committed BENCH_<rev>.json at the repo root
( cd "$tmpdir" && "$OLDPWD/_build/default/bench/main.exe" mixed \
  > "$tmpdir/bench_mixed.log" 2>&1 )
bench_json=$(find "$tmpdir" -maxdepth 1 -name 'BENCH_*.json' | head -n 1)
if [ -z "$bench_json" ]; then
  echo "check.sh: bench mixed wrote no snapshot; log:" >&2
  cat "$tmpdir/bench_mixed.log" >&2
  exit 1
fi
# ping p95 under heavy saturation stayed within 10x of idle, on both
# transports, and the server's histogram never reported a quantile
# above its own observed maximum
if ! grep -q '"cheap_p95_bound_ok":true' "$bench_json"; then
  echo "check.sh: cheap-op p95 exceeded 10x idle under saturation:" >&2
  cat "$tmpdir/bench_mixed.log" >&2
  exit 1
fi
if ! grep -q '"quantile_le_max_ok":true' "$bench_json"; then
  echo "check.sh: server histogram reported a quantile above max:" >&2
  cat "$tmpdir/bench_mixed.log" >&2
  exit 1
fi

echo "check.sh: OK"
