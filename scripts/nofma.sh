#!/usr/bin/env bash
# Fails if the Go compiler fuses a multiply and an add anywhere in the
# packages whose arithmetic reaches a trajectory or a trained potential,
# on any 64-bit architecture whose compiler fuses (arm64, ppc64le, s390x;
# amd64 never does). The Go spec lets `x*y + z` become one FMA, which
# rounds once instead of twice; an explicit float64(x*y) conversion
# forbids it. These packages wrap every product that feeds a sum that
# way, so the same deck and seed give the same bytes, and the same
# training seed the same weights, on every platform, and this check keeps
# it so. It needs only the cross-compiler, no emulator.
#
#   bash scripts/nofma.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

pkgs=(nnp feature eam cluster fusion lattice kmc encoding rng units sw train dataset)
# Scalar FMADD/FMSUB/FNMADD/FNMSUB[DS] (all three), arm64 VFMLA/VFMLS,
# s390x VFMA/VFMS/WFMADB/WFMSDB, ppc64 VSX XSMADD…/XVMADD….
fused='\s(FN?M(ADD|SUB)[A-Z]*|VFML[AS]|[VW]FN?M[AS](DB|SB)?|X[SV]N?M(ADD|SUB)[A-Z]*)\s'

status=0
for arch in arm64 ppc64le s390x; do
	asm=$(GOARCH=$arch go build -gcflags=-S "${pkgs[@]/#/./internal/}" 2>&1)
	hits=$(grep -E "$fused" <<<"$asm" || true)
	if [ -n "$hits" ]; then
		echo "GOARCH=$arch: fused multiply-add at:"
		grep -oE '\([^)]*\.go:[0-9]+\)' <<<"$hits" | sort -u
		status=1
	else
		echo "GOARCH=$arch: no fused multiply-add in ${pkgs[*]}"
	fi
done
exit $status
