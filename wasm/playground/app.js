// BBVL playground frontend. All verification work happens inside the
// wasm module (see ../wasm.go for the exported functions); this file
// only wires the editor, renders results and keeps the UI responsive.
"use strict";

const $ = (id) => document.getElementById(id);
const status = (msg) => { $("status").textContent = msg; };

let modelName = "model.bbvl";

async function boot() {
  const go = new Go();
  const resp = await WebAssembly.instantiateStreaming(
    fetch("bbv.wasm"), go.importObject);
  go.run(resp.instance); // resolves only on exit; the module stays live
  // The module sets bbvReady and the exported functions synchronously
  // from its main, before blocking.
  const examples = JSON.parse(bbvExamples());
  const sel = $("example");
  for (const ex of examples) {
    const opt = document.createElement("option");
    opt.value = ex.name;
    opt.textContent = ex.name;
    sel.appendChild(opt);
  }
  sel.addEventListener("change", () => {
    const ex = examples.find((e) => e.name === sel.value);
    if (ex) {
      modelName = ex.file;
      $("editor").value = ex.source;
      runVet();
    }
  });
  if (examples.length) {
    modelName = examples[0].file;
    $("editor").value = examples[0].source;
  }
  $("editor").addEventListener("input", debounce(runVet, 80));
  $("check").addEventListener("click", runCheck);
  $("explain").addEventListener("click", runExplain);
  $("check").disabled = $("explain").disabled = false;
  status("ready");
  runVet();
}

function debounce(fn, ms) {
  let t;
  return () => { clearTimeout(t); t = setTimeout(fn, ms); };
}

function bounds() {
  return {
    threads: Math.max(1, $("threads").valueAsNumber || 2),
    ops: Math.max(1, $("ops").valueAsNumber || 2),
  };
}

// vet is synchronous and sub-millisecond: run it on every edit.
function runVet() {
  const { threads, ops } = bounds();
  const res = JSON.parse(bbvVet(modelName, $("editor").value, threads, ops));
  const out = [];
  if (res.error) out.push(`load error: ${res.error}`);
  for (const f of res.findings || []) {
    const at = f.line ? `${f.file}:${f.line}:${f.col}` : (f.program || modelName);
    out.push(`${at}: ${f.severity}: ${f.msg} [${f.analyzer}]`);
  }
  const pre = $("vet");
  pre.textContent = out.length ? out.join("\n") : "clean";
  pre.className = "panel " + (res.ok ? (out.length ? "warn" : "good") : "bad");
}

function request() {
  const { threads, ops } = bounds();
  return JSON.stringify({
    source: $("editor").value,
    name: modelName,
    threads, ops,
    reduction: $("reduction").checked,
  });
}

async function runCheck() {
  status("exploring…");
  $("check").disabled = true;
  try {
    const raw = await bbvCheck(request());
    renderResult(JSON.parse(raw), raw);
    status("done");
  } catch (err) {
    status("check failed");
    $("verdicts").innerHTML = "";
    $("experiment").textContent = String(err.message || err);
    $("experiment").className = "panel bad";
  } finally {
    $("check").disabled = false;
  }
}

async function runExplain() {
  status("extracting experiment…");
  $("explain").disabled = true;
  try {
    const res = JSON.parse(await bbvExplain(request(), "branching"));
    const pre = $("experiment");
    if (res.bisimilar) {
      pre.textContent =
        `object (${res.impl_states} states) and spec (${res.spec_states} states) ` +
        `are ${res.kind} bisimilar; no distinguishing experiment exists`;
      pre.className = "panel good";
    } else {
      pre.textContent = res.experiment + "\nexperiment verified by replay on both systems";
      pre.className = "panel bad";
    }
    status("done");
  } catch (err) {
    status("explain failed");
    $("experiment").textContent = String(err.message || err);
    $("experiment").className = "panel bad";
  } finally {
    $("explain").disabled = false;
  }
}

function verdictRow(label, ok, detail) {
  const cls = ok ? "good" : "bad";
  const word = ok ? "OK" : "VIOLATED";
  return `<div class="verdict ${cls}"><b>${label}</b>: ${word}` +
    (detail ? ` <span class="hint">${detail}</span>` : "") + `</div>`;
}

function renderResult(res, raw) {
  const v = [];
  const c = res.check || {};
  if ("linearizable" in c) {
    v.push(verdictRow("linearizability (Thm 5.3)", c.linearizable,
      `${c.impl_states} states, quotient ${c.impl_quotient_states}`));
  }
  if ("lock_free" in c) {
    v.push(verdictRow(`lock-freedom (Thm ${c.lockfree_theorem || "5.9"})`, c.lock_free, ""));
  }
  if ("deadlock_free" in c) {
    v.push(verdictRow("deadlock-free", c.deadlock_free, ""));
  }
  $("verdicts").innerHTML = v.join("") || "<i>no check results</i>";

  const rows = (res.stages || []).map((s) => {
    const sizes = s.states_out ? `${s.states_out} st / ${s.transitions_out} tr` : "";
    const extra = s.bytes_per_state ? `${s.bytes_per_state.toFixed(1)} B/state` : "";
    return `<tr><td>${s.stage}</td><td>${s.target || ""}</td>` +
      `<td>${(s.elapsed_us / 1000).toFixed(2)} ms</td><td>${sizes}</td><td>${extra}</td></tr>`;
  });
  $("stages").innerHTML = rows.length
    ? `<table><tr><th>stage</th><th>target</th><th>time</th><th>out</th><th>storage</th></tr>${rows.join("")}</table>`
    : "<i>no stages</i>";

  const pre = $("experiment");
  const lin = c.lin_counterexample, dist = c.lin_distinguishing;
  if (lin && lin.length) {
    pre.textContent = "non-linearizable history:\n" +
      lin.map((e) => `  ${JSON.stringify(e)}`).join("\n");
    pre.className = "panel bad";
  } else {
    pre.textContent = "";
    pre.className = "panel";
  }
  if (dist) {
    pre.textContent += "\nquotient distinguishing experiment:\n" + JSON.stringify(dist, null, 2);
  }
  $("raw").textContent = raw;
}

boot().catch((err) => status("failed to load wasm: " + err));
