# Sourced by the CI steps that run the console script.
# expect CODE ARGS...: run `wavefront ARGS...` with its stdout discarded, and
# fail the step unless it exits CODE.
expect() {
  local code=$1 rc=0
  shift
  wavefront "$@" > /dev/null || rc=$?
  if [ "$rc" -ne "$code" ]; then
    echo "wavefront $*: exit $rc, expected $code" >&2
    exit 1
  fi
}
