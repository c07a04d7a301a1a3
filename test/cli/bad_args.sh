#!/bin/sh
# Out-of-range arguments must be usage errors naming the flag (cmdliner's
# CLI-error exit code 124), never an uncaught exception (exit 125).
# Usage: bad_args.sh PATH-TO-rpki_sim.exe — prints each invocation, its
# output and its exit code.
exe=$1
run() {
  echo "\$ rpki_sim $*"
  "$exe" "$@" 2>&1
  echo "exit $?"
}
run gossip --vantages 1
run gossip --vantages 0
run transparency --vantages 0
run transparency --monitors=-1
run restart --vantages 0
run restart --restart-at 1
run restart --restart-at 5
run restart --verify does-not-exist.der
run faultmix --rate 2
run rtr --sessions 0
run rtr --churn=-1
run soak --ticks 0
run scale --ases 7
run scale --placement nowhere
run whack --target 21
run monitor --action nope
run transparency --vantages 727
run transparency --monitors 726
run gossip --vantages 727
run restart --vantages 727
run scale --ases 200 --monitors 200
run gossip --byzantine 99 --vantages 4
run gossip --period=-2
run transparency --period 0
run transparency --grace=-3
run faultmix --ticks=-2
run scale --attack-at=-4
