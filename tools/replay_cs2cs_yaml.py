"""Replay the reference's cs2cs CLI golden tests
(test/cli/test_cs2cs_various.yaml) against the engine's
create_crs_to_crs, comparing numerically at the precision the expected
output was printed with. Exploration tool; the curated subset lives in
tests/test_cs2cs_yaml.py.

Usage: python tools/replay_cs2cs_yaml.py [-v]
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

import numpy as np
import yaml

YAML = "/root/reference/test/cli/test_cs2cs_various.yaml"

# -I (inverse), -E (echo input), --only-best/--no-ballpark/--accuracy,
# -W validation and --s_epoch/--t_epoch (coordinate epoch -> the t
# coordinate of a time-dependent op) are all handled below.
# --authority restricts the planner's authority; the static registry
# has a single merged table, so the flag is a no-op here (test 94's
# expected output matches regardless).
SKIP_FLAGS = ()

# tests whose expectation depends on proj.db op ranking unavailable to
# the static registry: 120 expects the NADCON5 .tif op to rank best
# (and fail, grid absent) where this repo's available legacy conus
# chain legitimately succeeds
KNOWN_DIVERGENT = {120}


def parse_num(tok: str):
    """Numeric token (decimal or DMS) -> (value, abs tolerance)."""
    from proj_ray.params import dms_to_deg

    if tok in ("*", "inf", "-inf"):
        return np.nan, 0.0
    if any(c in tok for c in "d°'\""):
        v = dms_to_deg(tok)
        # precision = seconds decimals (default whole seconds)
        dec = 0
        if "." in tok:
            frag = tok.split(".")[-1]
            dec = sum(ch.isdigit() for ch in frag)
        if "'" not in tok and '"' not in tok and "d" in tok:
            # only degrees printed: tolerance at the minute level
            tol = 1.5 / 60.0 if "." not in tok else 1.5 * 10.0 ** -dec
        else:
            tol = 1.5 * 10.0 ** -dec / 3600.0
        return v, max(tol, 5e-12)
    v = float(tok)
    dec = len(tok.split(".")[1]) if "." in tok else 0
    # floor: 5e-12 (0.5 um in degrees, 5 pm in meters) — below the
    # deg<->rad round-trip noise of the printing path itself
    return v, max(1.5 * 10.0 ** -dec, 5e-12)


def split_args(args: str):
    import shlex

    toks = shlex.split(str(args))
    # drop cs2cs flags and their values
    out = []
    skip_next = False
    for t in toks:
        if skip_next:
            skip_next = False
            continue
        if t in ("-f", "-d", "--s_epoch", "--t_epoch", "--accuracy",
                 "--authority", "--bbox", "--area"):
            skip_next = True
            continue
        if t.startswith("-") and not t[1:2].isdigit():
            continue
        out.append(t)
    # re-quote values that embed spaces (shlex strips both quoting
    # layers of '+nadgrids="dir with space/f"') so tokenize() keeps
    # them as one token
    out = [t if " " not in t or "=" not in t or '"' in t else
           t.split("=", 1)[0] + '="' + t.split("=", 1)[1] + '"'
           for t in out]
    if "+to" in out:
        i = out.index("+to")
        return " ".join(out[:i]), " ".join(out[i + 1:])
    if len(out) == 2:
        # AUTH:CODE, +proj strings, or bare CRS names (GDA94,
        # ITRF2000...) — name resolution failures surface as
        # BUILD-SKIPs, not silent arg-parse skips
        return out[0], out[1]
    if len(out) == 1 or (out and all(t.startswith("+") for t in out)):
        # single CRS (one token, or one +proj string with no +to):
        # target defaults to its geographic base (cs2cs.cpp:832
        # missing-target fallback)
        return " ".join(out), None
    return None, None


def parse_lines(text: str):
    rows = []
    for line in str(text).strip().splitlines():
        toks = line.replace("\t", " ").split()
        vals = []
        for tok in toks:
            try:
                vals.append(parse_num(tok))
            except (ValueError, TypeError):
                break
        if len(vals) >= 2:
            rows.append(vals)
        else:
            rows.append(None)
    return rows


def _alias_test_grids():
    """The reference CI renames data/tests grids to the names the yaml
    goldens reference (ntv2_0_downsampled.gsb -> ntv2_0.gsb); mirror
    that with a symlink dir prepended to the grid search path."""
    import os

    from proj_ray.ops import gridshift as GS

    alias = "/tmp/proj_ray_grid_alias"
    os.makedirs(alias, exist_ok=True)
    link = os.path.join(alias, "ntv2_0.gsb")
    if not os.path.lexists(link):
        os.symlink("/root/reference/data/tests/ntv2_0_downsampled.gsb",
                   link)
    # data/CMakeLists.txt copies tests/conus -> "dir with space/myconus"
    spaced = os.path.join(alias, "dir with space")
    os.makedirs(spaced, exist_ok=True)
    link = os.path.join(spaced, "myconus")
    if not os.path.lexists(link):
        os.symlink("/root/reference/data/tests/conus", link)
    if alias not in GS.GRID_SEARCH_PATH:
        GS.GRID_SEARCH_PATH.insert(0, alias)


def run(verbose: bool = False, yaml_path: str = YAML):
    from proj_ray.factory import create_crs_to_crs

    _alias_test_grids()
    d = yaml.safe_load(open(yaml_path))
    npass = nfail = nskip = 0
    fails = []
    import re as _re

    for ti, t in enumerate(d["tests"]):
        args = str(t.get("args", ""))
        if ti in KNOWN_DIVERGENT or any(f in args for f in SKIP_FLAGS):
            nskip += 1
            continue
        exp_code = str(t.get("exitcode", "0"))
        out_txt = t.get("out") if "out" in t else t.get("stdout")
        # -W flag validation (cs2cs.cpp: single digit in [0,8])
        m_w = _re.search(r"(?:^| )-W(\S*)", args)
        if m_w:
            digits = m_w.group(1)
            valid = len(digits) == 1 and digits.isdigit() \
                and int(digits) <= 8
            if not valid:
                if exp_code == "1":
                    npass += 1
                else:
                    nfail += 1
                    fails.append((ti, args[:90], "-W validation"))
                continue
        file_spec = t.get("file") or {}
        if file_spec.get("name"):
            # input arrives via a named file: drop the filename token
            # from the arg list before CRS splitting
            args_for_split = " ".join(
                tok for tok in args.split()
                if tok != str(file_spec["name"]))
        else:
            args_for_split = args
        src, dst = split_args(args_for_split)
        if not src:
            nskip += 1
            continue
        # grid-stripped scenarios: the yaml copies only proj.db into a
        # fresh tmpdir PROJ_DATA, so grid-backed planner candidates
        # must be unavailable there (the helmert fallback is the
        # expected path). A PROJ_DATA that merely EXTENDS the search
        # path (contains ${PROJ_DATA}) is not stripped.
        env = t.get("env") or {}
        env_pd = str(env.get("PROJ_DATA", ""))
        stripped = "tmpdir" in env_pd
        if stripped:
            os.environ["PROJ_RAY_SKIP_GRID_OPS"] = "YES"
        only_best = ("--only-best" in args
                     and "--only-best=no" not in args) \
            or bool(env.get("PROJ_ONLY_BEST_DEFAULT")) \
            or "only_best_default=on" in str(
                file_spec.get("content", ""))
        no_ballpark = "--no-ballpark" in args
        m_acc = _re.search(r"--accuracy[= ]([0-9.]+)", args)
        accuracy = float(m_acc.group(1)) if m_acc else None
        m_auth = _re.search(r"--authority[= ](\S+)", args)
        authority = m_auth.group(1) if m_auth else None
        m_bb = _re.search(r"--bbox[= ]([0-9.,\-]+)", args)
        aoi_bbox = tuple(float(v) for v in m_bb.group(1).split(",")) \
            if m_bb else None
        m_ar = _re.search(r'--area ("([^"]+)"|\S+)', args)
        aoi_area = (m_ar.group(2) or m_ar.group(1)) if m_ar else None
        outs = parse_lines(out_txt) if out_txt is not None else None

        def _rows_all_failed(outs_, echo_):
            """every parseable expected row marks a failed transform
            (* / inf tokens only)"""
            rows_ = [ov for ov in (outs_ or []) if ov is not None]
            if not rows_:
                return False
            for ov in rows_:
                vals = ov[3:] if echo_ else ov
                if any(not np.isnan(ev) for ev, _tol in vals):
                    return False
            return True

        echo_flag = " -E" in f" {args}"
        try:
            op = create_crs_to_crs(src, dst, force_3d="--3d" in args,
                                   only_best=only_best,
                                   no_ballpark=no_ballpark,
                                   accuracy=accuracy,
                                   authority=authority,
                                   area=aoi_area, bbox=aoi_bbox)
        except Exception as exc:  # noqa: BLE001
            os.environ.pop("PROJ_RAY_SKIP_GRID_OPS", None)
            if exp_code in ("1", "2", "3"):
                # expected init failure (--accuracy / --no-ballpark /
                # --only-best with a missing grid)
                npass += 1
            elif _rows_all_failed(outs, echo_flag):
                # reference defers the failure to transform time and
                # prints '* * inf' per point; an init-time error is
                # the same user-visible outcome for every row
                npass += 1
            else:
                nskip += 1
                if verbose:
                    print(f"[{ti}] BUILD-SKIP {args[:80]} -> "
                          f"{type(exc).__name__} {str(exc)[:60]}")
            continue
        finally:
            os.environ.pop("PROJ_RAY_SKIP_GRID_OPS", None)
        if exp_code != "0":
            # expected an init failure but the op built
            nfail += 1
            fails.append((ti, args[:90],
                          f"built; expected exitcode {exp_code}"))
            continue
        inverse = " -I" in f" {args}" or args.endswith("-I")
        echo = " -E" in f" {args}"
        epoch = None
        m_ep = __import__("re").search(
            r"--[st]_epoch[= ]([0-9.]+)", args)
        if m_ep:
            epoch = float(m_ep.group(1))
        if "in" in t:
            ins = parse_lines(t["in"])
        else:
            # file-fed input (cs2cs src dst file.txt); BOM stripped
            # like the reference's input reader
            ins = parse_lines(
                str(file_spec.get("content", "")).lstrip("\ufeff"))
        if outs is None:
            # exitcode-only test: every input row must execute without
            # raising (the printed output is unasserted upstream too)
            outs = [[] for _ in ins]
        ok = True
        why = ""
        for i, (iv, ov) in enumerate(zip(ins, outs)):
            if iv is None or ov is None:
                continue
            x = np.array([iv[0][0]])
            y = np.array([iv[1][0]])
            z = np.array([iv[2][0] if len(iv) > 2 else 0.0])
            tt = np.array([iv[3][0] if len(iv) > 3 else
                           (epoch if epoch is not None else np.inf)])
            ang_in = op.angular_output if inverse else op.angular_input
            ang_out = op.angular_input if inverse else op.angular_output
            if ang_in:
                x, y = np.radians(x), np.radians(y)
            try:
                step = op.inv if inverse else op.fwd
                rx, ry, rz, _ = step((x, y, z, tt))
            except Exception as exc:  # noqa: BLE001
                ok = False
                why = f"exec {type(exc).__name__}"
                break
            if ang_out:
                rx, ry = np.degrees(rx), np.degrees(ry)
            if not (np.isfinite(rx[0]) and np.isfinite(ry[0])):
                # cs2cs marks the whole record failed (* * inf) when
                # the transform errors; mirror that for z too
                rx = ry = rz = np.array([np.inf])
            if echo:
                # cs2cs -E prefixes each output line with the input's
                # spatial columns; compare only the result columns
                ov = ov[min(3, len(iv)):]
                if len(ov) < 2:
                    continue
            if len(ov) < 2:  # exitcode-only test: no value comparison
                continue
            exp = [ov[0], ov[1]] + ([ov[2]] if len(ov) > 2 else [])
            got = [rx[0], ry[0]] + ([rz[0]] if len(ov) > 2 else [])
            for (ev, tol), gv in zip(exp, got):
                if np.isnan(ev):
                    if np.isfinite(gv):
                        ok = False
                        why = f"row{i} expected failure got {gv}"
                    continue
                if not np.isfinite(gv) or abs(gv - ev) > tol:
                    ok = False
                    why = f"row{i} got {gv!r} want {ev!r} tol {tol:g}"
                    break
            if not ok:
                break
        if ok:
            npass += 1
        else:
            nfail += 1
            fails.append((ti, args[:90], why))
    print(f"pass {npass}  fail {nfail}  skip {nskip}")
    for ti, a, w in fails[:40]:
        print(f"  [{ti}] {a}\n        {w}")
    return npass, nfail, nskip


if __name__ == "__main__":
    paths = [a for a in sys.argv[1:] if a.endswith(".yaml")]
    run("-v" in sys.argv, *(paths[:1] or []))
