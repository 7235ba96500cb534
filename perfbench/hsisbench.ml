(* The benchmark program behind perfbench/run.py.

     hsisbench run --workload table1|serve-edit|fuzz --seed N --seconds S
                   --trace 0|1 --dir DIR [--trace-file FILE]
     hsisbench refs --dir DIR

   [run] executes one workload in this (fresh, single-threaded) process,
   checks every output against references computed apart from the timed
   path, and prints one JSON result line last on stdout.  With --trace 0
   it reports the end-to-end metrics; with --trace 1 it runs the workload
   once untraced and once with spans recorded around the calls into each
   layer, prints the per-layer table and reports the per-layer metrics.
   [refs] rebuilds DIR/refs.json, the reachable-state counts of the
   Table-1 designs that have no closed form, by a different route than
   the timed path (the monolithic transition relation).

   Workloads, metrics and their expected interactions are described in
   README.md next to this file. *)

open Hsis_obs
open Hsis_core
open Hsis_models
module J = Obs.Json
module V = Hsis_limits.Verdict
module Rng = Hsis_gen.Rng
module Diff = Hsis_gen.Diff
module Gen = Hsis_gen.Gen
module Trans = Hsis_fsm.Trans
module Reach = Hsis_check.Reach
module Lc = Hsis_check.Lc
module Enum = Hsis_check.Enum
module Trace = Hsis_debug.Trace
module Pif = Hsis_auto.Pif
module Proto = Hsis_serve.Proto
module Server = Hsis_serve.Server
module Scache = Hsis_serve.Scache

let now = Obs.Clock.now
let failf fmt = Printf.ksprintf failwith fmt

(* ------------------------------------------------------------------ *)
(* Spans, recorded from this file around calls into the layers *)

module Span = struct
  type ev = { name : string; ts : float; dur : float; depth : int }

  let on = ref false
  let evs : ev list ref = ref []
  let depth = ref 0

  let with_ name f =
    if not !on then f ()
    else begin
      let d = !depth in
      depth := d + 1;
      let ts = now () in
      Fun.protect
        ~finally:(fun () ->
          depth := d;
          evs := { name; ts; dur = now () -. ts; depth = d } :: !evs)
        f
    end

  (* Durations the program measures itself (phase timers, a property's own
     time in a serve response), laid end to end from [ts] as children of
     the enclosing span. *)
  let reported ~ts durations =
    if !on then
      ignore
        (List.fold_left
           (fun t (name, dur) ->
             evs := { name; ts = t; dur; depth = !depth } :: !evs;
             t +. dur)
           ts durations)

  let enabled b f =
    let was = !on in
    on := b;
    Fun.protect ~finally:(fun () -> on := was) f

  type layer = { mutable calls : int; mutable total : float; mutable self : float;
                 mutable durs : float list }

  type summary = {
    layers : (string * layer) list;  (** by name; "timed" excluded *)
    blocking : float;
        (** self time of layer spans nested in a [timed] span: the layers'
            share of the blocking path *)
    timed : float;  (** total duration of [timed] spans *)
  }

  (* A span's self time is its duration minus its direct children's.
     Sorting by start then depth puts every parent before its children,
     so a stack recovers the nesting. *)
  let summarise () =
    let evs =
      Array.of_list
        (List.sort (fun a b -> compare (a.ts, a.depth) (b.ts, b.depth)) !evs)
    in
    let self = Array.map (fun e -> e.dur) evs in
    let in_timed = Array.make (Array.length evs) false in
    let stack = ref [] in
    Array.iteri
      (fun i e ->
        let rec pop = function
          | j :: rest when evs.(j).depth >= e.depth -> pop rest
          | s -> s
        in
        stack := pop !stack;
        (match !stack with
        | p :: _ ->
            self.(p) <- self.(p) -. e.dur;
            in_timed.(i) <- in_timed.(p) || evs.(p).name = "timed"
        | [] -> ());
        stack := i :: !stack)
      evs;
    let tbl = Hashtbl.create 32 in
    let blocking = ref 0.0 and timed = ref 0.0 in
    Array.iteri
      (fun i e ->
        if e.name = "timed" then timed := !timed +. e.dur
        else begin
          let l =
            match Hashtbl.find_opt tbl e.name with
            | Some l -> l
            | None ->
                let l = { calls = 0; total = 0.0; self = 0.0; durs = [] } in
                Hashtbl.add tbl e.name l;
                l
          in
          l.calls <- l.calls + 1;
          l.total <- l.total +. e.dur;
          l.self <- l.self +. self.(i);
          l.durs <- e.dur :: l.durs;
          if in_timed.(i) then blocking := !blocking +. self.(i)
        end)
      evs;
    let layers = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
    { layers = List.sort compare layers; blocking = !blocking; timed = !timed }

  let self_s s name =
    match List.assoc_opt name s.layers with Some l -> l.self | None -> 0.0

  let durations s name =
    match List.assoc_opt name s.layers with Some l -> l.durs | None -> []

  let print s =
    Printf.printf "%-20s %7s %11s %11s\n" "layer" "calls" "total_s" "self_s";
    List.iter
      (fun (name, l) ->
        Printf.printf "%-20s %7d %11.4f %11.4f\n" name l.calls l.total l.self)
      (List.sort (fun (_, a) (_, b) -> compare b.self a.self) s.layers);
    Printf.printf "%-20s %7s %11.4f %11.4f\n%!" "(blocking path)" "" s.timed
      s.blocking

  (* Chrome trace-event JSON (complete events), loadable in Perfetto. *)
  let write_chrome path =
    let evs = List.rev !evs in
    let t0 = List.fold_left (fun m e -> Float.min m e.ts) infinity evs in
    let us x = J.Float (Float.round (x *. 1e7) /. 10.0) in
    let events =
      List.map
        (fun e ->
          J.Obj
            [
              ("name", J.Str e.name);
              ("cat", J.Str (match String.index_opt e.name '.' with
                             | Some i -> String.sub e.name 0 i
                             | None -> e.name));
              ("ph", J.Str "X");
              ("ts", us (e.ts -. t0));
              ("dur", us e.dur);
              ("pid", J.Int 1);
              ("tid", J.Int 1);
            ])
        evs
    in
    let oc = open_out_bin path in
    output_string oc
      (J.to_string
         (J.Obj
            [ ("traceEvents", J.List events); ("displayTimeUnit", J.Str "ms") ]));
    output_char oc '\n';
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Statistics and the result line *)

let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = truncate pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((a.(hi) -. a.(lo)) *. (pos -. float_of_int lo))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.0

(* Job latency quantiles use the Harrell-Davis estimator, a beta-weighted
   mean of all order statistics: the job times cluster by property and
   design, and a single order statistic jumps between clusters when noise
   reorders two neighbours near the quantile. *)
let log_gamma x =
  (* Lanczos approximation (g = 7), for x >= 0.5 *)
  let c =
    [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
       771.32342877765313; -176.61502916214059; 12.507343278686905;
       -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]
  in
  let x = x -. 1.0 in
  let a = ref c.(0) in
  for i = 1 to 8 do
    a := !a +. (c.(i) /. (x +. float_of_int i))
  done;
  let t = x +. 7.5 in
  (0.5 *. log (2.0 *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !a

(* Continued fraction of the incomplete beta function (modified Lentz). *)
let beta_cf a b x =
  let tiny = 1e-300 in
  let clamp v = if Float.abs v < tiny then tiny else v in
  let c = ref 1.0 and d = ref (1.0 /. clamp (1.0 -. ((a +. b) *. x /. (a +. 1.0)))) in
  let h = ref !d in
  (try
     for m = 1 to 10_000 do
       let m = float_of_int m in
       let step aa =
         d := 1.0 /. clamp (1.0 +. (aa *. !d));
         c := clamp (1.0 +. (aa /. !c));
         h := !h *. !d *. !c
       in
       step (m *. (b -. m) *. x /. ((a +. (2.0 *. m) -. 1.0) *. (a +. (2.0 *. m))));
       step
         (-.(a +. m) *. (a +. b +. m) *. x
         /. ((a +. (2.0 *. m)) *. (a +. (2.0 *. m) +. 1.0)));
       if Float.abs ((!d *. !c) -. 1.0) < 1e-15 then raise Exit
     done
   with Exit -> ());
  !h

(* Regularized incomplete beta I_x(a, b). *)
let beta_inc a b x =
  if x <= 0.0 then 0.0
  else if x >= 1.0 then 1.0
  else
    let front =
      exp
        (log_gamma (a +. b) -. log_gamma a -. log_gamma b +. (a *. log x)
        +. (b *. log (1.0 -. x)))
    in
    if x < (a +. 1.0) /. (a +. b +. 2.0) then front *. beta_cf a b x /. a
    else 1.0 -. (front *. beta_cf b a (1.0 -. x) /. b)

let hd_quantile q xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n < 2 then quantile q xs
  else begin
    let nf = float_of_int n in
    let alpha = q *. (nf +. 1.0) and beta = (1.0 -. q) *. (nf +. 1.0) in
    let acc = ref 0.0 and prev = ref 0.0 in
    for i = 1 to n do
      let cdf = beta_inc alpha beta (float_of_int i /. nf) in
      acc := !acc +. ((cdf -. !prev) *. a.(i - 1));
      prev := cdf
    done;
    !acc
  end

(* Jobs attempted and failed; [correct] turns false when a check outside
   any job (a reachable-state count, a mirror disagreeing with the
   program) fails. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable job_ms : float list;
  mutable correct : bool;
}

let tally () = { attempted = 0; failed = 0; job_ms = []; correct = true }

let job t ~ok ~what ms =
  t.attempted <- t.attempted + 1;
  t.job_ms <- ms :: t.job_ms;
  if not ok then begin
    t.failed <- t.failed + 1;
    prerr_endline ("hsisbench: job failed: " ^ what)
  end

let problem t fmt =
  Printf.ksprintf
    (fun s ->
      t.correct <- false;
      prerr_endline ("hsisbench: check failed: " ^ s))
    fmt

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | exception End_of_file -> 0.0
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> go ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result t metrics =
  let ms =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number value)
          unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    t.correct t.attempted t.failed (String.concat ", " ms)

(* Rounds repeat until the run has measured [seconds] and holds at least
   [min_jobs] jobs, so that every run attempts whole rounds and has a p90
   with ten or more jobs beyond it. *)
let min_jobs = 100

(* [round ()] repeatedly, from [start] on, onto [acc] (latest first). *)
let repeat_rounds ~start ~seconds t acc round =
  let rec go acc =
    if now () -. start >= seconds && t.attempted >= min_jobs then acc
    else go (round () :: acc)
  in
  go acc

let end_to_end t ~setup ~rounds ~peak_live =
  [
    ("setup_s", median setup, "s");
    ("check_s", median rounds, "s");
    ("job_p50_ms", hd_quantile 0.5 t.job_ms, "ms");
    ("job_p90_ms", hd_quantile 0.9 t.job_ms, "ms");
    ("peak_live_nodes", float_of_int peak_live, "count");
    ("peak_rss_mb", peak_rss_mb (), "MB");
  ]

(* ------------------------------------------------------------------ *)
(* BDD manager counters *)

type counts = {
  ae_hits : int;
  ae_misses : int;
  evictions : int;
  gc_runs : int;
  gc_s : float;
  peak_live : int;
}

let zero_counts =
  { ae_hits = 0; ae_misses = 0; evictions = 0; gc_runs = 0; gc_s = 0.0;
    peak_live = 0 }

let counts_of (s : Obs.man_stats) =
  let ae =
    List.find_opt (fun o -> o.Obs.Cache.name = "and_exists") s.Obs.cache.ops
  in
  {
    ae_hits = (match ae with Some o -> o.Obs.Cache.hits | None -> 0);
    ae_misses = (match ae with Some o -> o.Obs.Cache.misses | None -> 0);
    evictions = s.Obs.cache.Obs.Cache.evictions;
    gc_runs = s.Obs.gc.Obs.Gc.runs;
    gc_s = s.Obs.gc.Obs.Gc.time;
    peak_live = s.Obs.arena.Obs.Arena.peak_live;
  }

let add_counts a b =
  {
    ae_hits = a.ae_hits + b.ae_hits;
    ae_misses = a.ae_misses + b.ae_misses;
    evictions = a.evictions + b.evictions;
    gc_runs = a.gc_runs + b.gc_runs;
    gc_s = a.gc_s +. b.gc_s;
    peak_live = max a.peak_live b.peak_live;
  }

let sub_counts a b =
  {
    ae_hits = a.ae_hits - b.ae_hits;
    ae_misses = a.ae_misses - b.ae_misses;
    evictions = a.evictions - b.evictions;
    gc_runs = a.gc_runs - b.gc_runs;
    gc_s = a.gc_s -. b.gc_s;
    peak_live = a.peak_live;
  }

(* Counts gathered during the traced round, beside the spans. *)
type layer_counts = {
  mutable bdd : counts;
  mutable relation_parts : int;
  mutable relation_nodes : int;
  mutable reach_steps : int;
  mutable lc_product_nodes : int;
  mutable enum_states : int;
  mutable serve_overhead_ms : float list;
  mutable cache_hits : int;
  mutable cache_misses : int;
}

let layer_counts () =
  { bdd = zero_counts; relation_parts = 0; relation_nodes = 0;
    reach_steps = 0; lc_product_nodes = 0; enum_states = 0;
    serve_overhead_ms = []; cache_hits = 0; cache_misses = 0 }

let add_relation lc (p : Obs.rel_profile) =
  lc.relation_parts <- lc.relation_parts + p.Obs.rel_parts;
  lc.relation_nodes <- lc.relation_nodes + p.Obs.rel_nodes

let per_layer (s : Span.summary) lc ~untraced_check ~traced_check =
  let self = Span.self_s s in
  let b = lc.bdd in
  let lookups = b.ae_hits + b.ae_misses in
  [
    ("verilog.compile_s", self "verilog.compile", "s");
    ("blifmv.flatten_s", self "blifmv.flatten", "s");
    ("fsm.order_s", self "fsm.order", "s");
    ("fsm.relation_s", self "fsm.relation", "s");
    ("fsm.relation_parts", float_of_int lc.relation_parts, "count");
    ("fsm.relation_nodes", float_of_int lc.relation_nodes, "count");
    ("fsm.image_ms", 1000.0 *. median (Span.durations s "fsm.image"), "ms");
    ("check.reach_s", self "check.reach", "s");
    ("check.reach_steps", float_of_int lc.reach_steps, "count");
    ("bdd.and_exists_misses", float_of_int b.ae_misses, "count");
    ( "bdd.and_exists_hit_rate",
      (if lookups = 0 then 0.0
       else float_of_int b.ae_hits /. float_of_int lookups),
      "ratio" );
    ("bdd.cache_evictions", float_of_int b.evictions, "count");
    ("check.mc_s", self "check.mc", "s");
    ("check.lc_s", self "check.lc", "s");
    ("check.lc_product_nodes", float_of_int lc.lc_product_nodes, "count");
    ("check.enum_s", self "check.enum", "s");
    ("check.enum_states", float_of_int lc.enum_states, "count");
    ("gen.s", self "gen", "s");
    ("debug.replay_s", self "debug.lasso" +. self "debug.replay", "s");
    ("bdd.peak_live", float_of_int b.peak_live, "count");
    ("bdd.gc_runs", float_of_int b.gc_runs, "count");
    ("bdd.gc_s", b.gc_s, "s");
    ("serve.overhead_ms", median lc.serve_overhead_ms, "ms");
    ("serve.cache_hits", float_of_int lc.cache_hits, "count");
    ("serve.cache_misses", float_of_int lc.cache_misses, "count");
    ("obs.trace_overhead_s", traced_check -. untraced_check, "s");
    ( "obs.blocking_share",
      (if untraced_check > 0.0 then s.Span.blocking /. untraced_check else 0.0),
      "ratio" );
  ]

let finish_traced ~trace_file t lc ~untraced_check ~traced_check =
  let s = Span.summarise () in
  Span.print s;
  Printf.printf "untraced check_s %.4f, traced check_s %.4f\n%!" untraced_check
    traced_check;
  Option.iter Span.write_chrome trace_file;
  print_result t (per_layer s lc ~untraced_check ~traced_check)

(* ------------------------------------------------------------------ *)
(* References, computed apart from the timed path *)

(* The designs' intended answers: every property holds except one
   liveness property of the dining philosophers, which deadlock. *)
let intended_failures = [ ("philos", "p0_eats_forever_often") ]
let expect_pass design prop = not (List.mem (design, prop) intended_failures)

(* Table 1 runs the scheduler at its 17-station default, which reaches
   n * 2^n states (the token position times the request bits). *)
let scheduler_n = 17

let closed_form = function
  | "scheduler" -> Some (float_of_int (scheduler_n lsl scheduler_n))
  | "pingpong" -> Some 3.0
  | _ -> None

(* Designs whose count comes from refs.json. *)
let refs_designs = [ "gigamax"; "dcnew"; "mdlc" ]
let refs_path dir = Filename.concat dir "refs.json"

let load_refs dir =
  let ic = open_in_bin (refs_path dir) in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match J.member "counts" (J.parse text) with
  | Some (J.Obj kvs) -> List.map (fun (k, v) -> (k, J.to_float (Some v))) kvs
  | _ -> failf "%s: no \"counts\" object" (refs_path dir)

(* Reachable-state count of every Table-1 design: closed forms, the
   explicit-state engine for philos, refs.json for the rest. *)
let reference_counts ~dir lc models =
  let refs = load_refs dir in
  List.map
    (fun (m : Model.t) ->
      let name = m.Model.name in
      let count =
        match closed_form name with
        | Some c -> c
        | None when name = "philos" ->
            let n =
              Span.with_ "check.enum" (fun () ->
                  Enum.count_reachable (Model.net m))
            in
            lc.enum_states <- lc.enum_states + n;
            float_of_int n
        | None -> (
            match List.assoc_opt name refs with
            | Some c -> c
            | None -> failf "%s has no count for %s" (refs_path dir) name)
      in
      (name, count))
    models

let rebuild_refs ~dir =
  let counts =
    List.filter_map
      (fun (m : Model.t) ->
        if List.mem m.Model.name refs_designs then begin
          let d = Hsis.read_verilog ~strategy:Trans.Monolithic m.Model.verilog in
          Hsis.set_reach_profile d false;
          let n = Hsis.reached_states d in
          Printf.printf "%-10s %.0f\n%!" m.Model.name n;
          Some (m.Model.name, J.Int (int_of_float n))
        end
        else None)
      (Models.table1 ())
  in
  let oc = open_out_bin (refs_path dir) in
  output_string oc
    (J.to_string
       (J.Obj
          [
            ( "note",
              J.Str
                "reachable-state counts by the monolithic transition relation; \
                 rebuild with: python3 perfbench/run.py --rebuild-refs" );
            ("counts", J.Obj counts);
          ]));
  output_char oc '\n';
  close_out oc

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* Re-image every onion ring after the fixpoint: the per-call image cost,
   probed outside the blocking path. *)
let image_probe trans (r : Reach.t) =
  Array.iter
    (fun ring -> ignore (Span.with_ "fsm.image" (fun () -> Trans.image trans ring)))
    r.Reach.rings

(* ------------------------------------------------------------------ *)
(* table1: cold batch check of the six Table-1 designs *)

type prop = Ctl of string * Hsis_auto.Ctl.t | Lc of Hsis_auto.Autom.t

let prop_name = function Ctl (n, _) -> n | Lc a -> a.Hsis_auto.Autom.a_name

let props_of (pif : Pif.t) =
  List.map (fun (n, f) -> Ctl (n, f)) pif.Pif.p_ctl
  @ List.map
      (fun n ->
        match Pif.find_automaton pif n with
        | Some a -> Lc a
        | None -> failf "pif: lc %s names no automaton" n)
      pif.Pif.p_lc

(* A checked property: its verdict and, when it fails, the error trace
   with the structure to replay it on. *)
type outcome = {
  verdict : unit V.t;
  trace : (Trace.t * Trans.t) option;
  product_nodes : int;
}

let check_prop ~traced d (pif : Pif.t) = function
  | Ctl (name, f) ->
      let r =
        Span.with_ "check.mc" (fun () ->
            Hsis.check_ctl ~fairness:pif.Pif.p_fairness d ~name f)
      in
      { verdict = V.map ignore r.Hsis.pr_verdict; trace = None; product_nodes = 0 }
  | Lc aut when not traced ->
      let r = Hsis.check_lc ~fairness:pif.Pif.p_fairness ~trace:true d aut in
      let trace =
        match r.Hsis.pr_verdict with
        | V.Fail ev ->
            Option.map (fun t -> (t, ev.Hsis.le_trans)) ev.Hsis.le_trace
        | _ -> None
      in
      { verdict = V.map ignore r.Hsis.pr_verdict; trace; product_nodes = 0 }
  | Lc aut ->
      (* What Hsis.check_lc does, split at the layer boundary so that the
         product Lc.check builds is visible. *)
      let o =
        Span.with_ "check.lc" (fun () ->
            Lc.check ~fairness:pif.Pif.p_fairness d.Hsis.flat aut)
      in
      let trace =
        match (o.Lc.verdict, o.Lc.product) with
        | V.Fail _, Some p -> (
            match
              Span.with_ "debug.lasso" (fun () ->
                  Trace.fair_lasso p.Lc.env ~reach:p.Lc.reach ~fair:p.Lc.fair)
            with
            | t -> Some (t, p.Lc.trans)
            | exception Not_found -> None)
        | _ -> None
      in
      {
        verdict = V.map ignore o.Lc.verdict;
        trace;
        product_nodes =
          (match o.Lc.product with
          | Some p -> Trans.parts_size p.Lc.trans
          | None -> 0);
      }

(* The verdict is the intended one, and a failure carries a verified
   trace that replays on the explicit-state simulator. *)
let outcome_ok ~design prop o =
  match o.verdict with
  | V.Pass -> expect_pass design (prop_name prop)
  | V.Inconclusive _ -> false
  | V.Fail () -> (
      (not (expect_pass design (prop_name prop)))
      &&
      match o.trace with
      | Some (t, trans) ->
          t.Trace.verified
          && Span.with_ "debug.replay" (fun () -> Trace.replay trans t)
      | None -> false)

let read_design ~traced (m : Model.t) =
  if not traced then Hsis.read_verilog m.Model.verilog
  else begin
    let src = m.Model.verilog in
    let ast =
      Span.with_ "verilog.compile" (fun () -> Hsis_verilog.Elab.compile src)
    in
    let flat, prov =
      Span.with_ "blifmv.flatten" (fun () ->
          Hsis_blifmv.Flatten.flatten_prov ast)
    in
    Span.with_ "hsis.read_flat" (fun () ->
        let ts = now () in
        let d =
          Hsis.read_flat ~prov
            ~verilog_lines:(Hsis_blifmv.Ast.line_count src)
            flat
        in
        let phase p = Option.value ~default:0.0
            (List.assoc_opt p (Obs.Timers.to_list d.Hsis.timers)) in
        Span.reported ~ts
          [ ("fsm.order", phase "order"); ("fsm.relation", phase "relation") ];
        d)
  end

(* One pass: each design read cold into a fresh manager, explored, and
   every property of its PIF checked.  Returns (read seconds, check
   seconds, peak live nodes). *)
let table1_pass ~traced ~refs t lc designs =
  List.fold_left
    (fun (setup, check, peak) ((m : Model.t), pif, props) ->
      Gc.compact ();
      let name = m.Model.name in
      let d, read_s = Obs.Clock.wall (fun () -> read_design ~traced m) in
      Hsis.set_reach_profile d false;
      let results = ref [] in
      let reach, check_s =
        Obs.Clock.wall (fun () ->
            Span.with_ "timed" (fun () ->
                let r = Span.with_ "check.reach" (fun () -> Hsis.reachable d) in
                List.iter
                  (fun p ->
                    let t0 = now () in
                    let o =
                      try Ok (check_prop ~traced d pif p) with e -> Error e
                    in
                    results := (p, o, 1000.0 *. (now () -. t0)) :: !results)
                  props;
                r))
      in
      let states = Reach.count_states d.Hsis.trans reach.Reach.reachable in
      let expected = List.assoc name refs in
      if states <> expected then
        problem t "%s: %.0f reachable states, reference %.0f" name states
          expected;
      List.iter
        (fun (p, o, ms) ->
          let ok =
            match o with Ok o -> outcome_ok ~design:name p o | Error _ -> false
          in
          job t ~ok ~what:(name ^ "/" ^ prop_name p) ms;
          match o with
          | Ok o -> lc.lc_product_nodes <- lc.lc_product_nodes + o.product_nodes
          | Error _ -> ())
        (List.rev !results);
      let c = counts_of (Hsis.stats d) in
      if traced then begin
        lc.bdd <- add_counts lc.bdd c;
        add_relation lc (Trans.rel_profile d.Hsis.trans);
        lc.reach_steps <- lc.reach_steps + reach.Reach.steps;
        image_probe d.Hsis.trans reach
      end;
      (setup +. read_s, check +. check_s, max peak c.peak_live))
    (0.0, 0.0, 0) designs

(* Cold reads of the six designs made before the passes, beside the one
   each pass makes: a read takes about 0.1 s, so set-up needs more samples
   than the passes give. *)
let table1_setup_reps = 7

let table1 ~dir ~seed ~seconds ~trace ~trace_file =
  let models = Models.table1 () in
  let designs =
    List.map
      (fun m ->
        let pif = Model.parse_pif m in
        (m, pif, props_of pif))
      models
  in
  let t = tally () in
  let lc = layer_counts () in
  let rng = Rng.make seed in
  let refs = Span.enabled trace (fun () -> reference_counts ~dir lc models) in
  (* The first pass runs in Table-1 order in every run, later passes in an
     order the seed draws; each design gets a fresh manager. *)
  let drawn () = Span.with_ "gen" (fun () -> shuffle (Rng.split rng) designs) in
  if not trace then begin
    let reads =
      List.init table1_setup_reps (fun _ ->
          sum
            (List.map
               (fun ((m : Model.t), _, _) ->
                 Gc.compact ();
                 snd (Obs.Clock.wall (fun () -> Hsis.read_verilog m.Model.verilog)))
               designs))
    in
    let start = now () in
    (* BDD handles are released by OCaml finalisers, so live-node counts
       follow the OCaml heap's history (see README.md): the peak comes from
       the first pass, which runs the same sequence in every run. *)
    let first = table1_pass ~traced:false ~refs t lc designs in
    let passes =
      repeat_rounds ~start ~seconds t [ first ] (fun () ->
          table1_pass ~traced:false ~refs t lc (drawn ()))
    in
    let _, _, peak_live = first in
    print_result t
      (end_to_end t
         ~setup:(reads @ List.map (fun (s, _, _) -> s) passes)
         ~rounds:(List.map (fun (_, c, _) -> c) passes)
         ~peak_live)
  end
  else begin
    (* traced first, so that its counts come from the same point of the
       process's history as the untraced runs' peak *)
    let _, traced_check, _ =
      Span.enabled true (fun () -> table1_pass ~traced:true ~refs t lc designs)
    in
    let _, untraced_check, _ = table1_pass ~traced:false ~refs t lc (drawn ()) in
    finish_traced ~trace_file t lc ~untraced_check ~traced_check
  end

(* ------------------------------------------------------------------ *)
(* serve-edit: warm edit-and-re-check loop against the serve layer *)

(* One property of a design's PIF, as a user would re-submit it after
   editing: the PIF's fairness constraints plus that single property (and,
   for containment, its automaton), renamed so every request is new. *)
type edit = {
  e_model : Model.t;
  e_name : string;
  e_is_lc : bool;
  e_pif : string -> string;  (** new property name -> PIF text *)
}

let edits_of (m : Model.t) =
  let fairness = ref [] and automata = ref [] and ctls = ref [] and lcs = ref [] in
  let block = ref None in
  List.iter
    (fun raw ->
      let l = String.trim raw in
      match !block with
      | Some (name, header, body) ->
          if l = "}" then begin
            automata := (name, (header, List.rev (raw :: body))) :: !automata;
            block := None
          end
          else block := Some (name, header, raw :: body)
      | None -> (
          match String.split_on_char ' ' l with
          | "fairness" :: _ -> fairness := raw :: !fairness
          | "automaton" :: name :: rest ->
              block := Some (name, String.concat " " rest, [])
          | "ctl" :: name :: _ ->
              let skip = String.length "ctl " + String.length name in
              let rest = String.sub l skip (String.length l - skip) in
              ctls := (name, String.trim rest) :: !ctls
          | "lc" :: name :: _ ->
              lcs := String.sub name 0 (String.index name ';') :: !lcs
          | _ -> ()))
    (String.split_on_char '\n' m.Model.pif);
  let fairness = List.rev !fairness in
  let lines ls = String.concat "\n" (fairness @ ls) ^ "\n" in
  List.rev_map
    (fun (name, rest) ->
      { e_model = m; e_name = name; e_is_lc = false;
        e_pif = (fun n -> lines [ Printf.sprintf "ctl %s %s" n rest ]) })
    !ctls
  @ List.rev_map
      (fun name ->
        let header, body =
          match List.assoc_opt name !automata with
          | Some a -> a
          | None -> failf "%s: lc %s names no automaton" m.Model.name name
        in
        { e_model = m; e_name = name; e_is_lc = true;
          e_pif =
            (fun n ->
              lines
                ((Printf.sprintf "automaton %s %s" n header :: body)
                @ [ Printf.sprintf "lc %s;" n ])) })
      !lcs

let request_line ~op ?pif ?(stats = false) (m : Model.t) =
  J.to_string
    (Proto.request_to_json
       {
         Proto.r_id = J.Null;
         r_op = op;
         r_design = Some (Proto.Verilog m.Model.verilog);
         r_pif = pif;
         r_budget = Proto.no_budget;
         r_jobs = None;
         r_kernel_jobs = None;
         r_tr = None;
         r_fail_fast = false;
         r_witnesses = false;
         r_stats = stats;
       })

let call server line =
  let t0 = now () in
  match Server.handle_line server line with
  | Some r, _ -> (r, now () -. t0)
  | None, _ -> failf "serve: no response"

let status_ok (r : Proto.response) = r.Proto.p_status = `Ok

let cache_hit (r : Proto.response) =
  J.member "hit" r.Proto.p_cache = Some (J.Bool true)

let result_member k (r : Proto.response) =
  match r.Proto.p_result with Some j -> J.member k j | None -> None

(* Open the six sessions cold, one "reach" request each, and check every
   reached-state count.  With [stats] the responses carry the program's
   own phase timers, reported as the layers' spans. *)
let serve_setup ~refs ~stats t lc models =
  let server = Server.create () in
  let elapsed =
    List.fold_left
      (fun acc (m : Model.t) ->
        let line = request_line ~op:Proto.Reach ~stats m in
        let r, dt =
          Span.with_ "serve.handle_line" (fun () ->
              let ts = now () in
              let r, dt = call server line in
              (match r.Proto.p_obs with
              | Some o ->
                  let phase p = Option.value ~default:0.0
                      (List.assoc_opt p o.Obs.phases) in
                  Span.reported ~ts
                    [ ("verilog.compile", phase "parse");
                      ("blifmv.flatten", phase "flatten");
                      ("fsm.order", phase "order");
                      ("fsm.relation", phase "relation");
                      ("check.reach", phase "reach") ];
                  Option.iter (add_relation lc) o.Obs.relation
              | None -> ());
              (r, dt))
        in
        let states = J.to_float (result_member "reached_states" r) in
        let expected = List.assoc m.Model.name refs in
        if not (status_ok r) || cache_hit r || states <> expected then
          problem t "serve: %s opened with %.0f states (reference %.0f)"
            m.Model.name states expected;
        if stats then
          lc.reach_steps <- lc.reach_steps + J.to_int (result_member "bfs_steps" r);
        acc +. dt)
      0.0 models
  in
  (server, elapsed)

(* One timed re-check: the response must be ok, a warm-cache hit, and
   carry the intended verdict for the edited property. *)
let serve_job ~traced server t lc k (e : edit) =
  let name = Printf.sprintf "%s_e%d" e.e_name k in
  let line = request_line ~op:Proto.Check ~pif:(e.e_pif name) e.e_model in
  let r, dt =
    Span.with_ "timed" (fun () ->
        Span.with_ "serve.handle_line" (fun () ->
            let ts = now () in
            let r, dt = call server line in
            let props =
              J.to_list (result_member (if e.e_is_lc then "lc" else "ctl") r)
            in
            let prop_s =
              sum (List.map (fun p -> J.to_float (J.member "time_s" p)) props)
            in
            Span.reported ~ts
              [ ((if e.e_is_lc then "check.lc" else "check.mc"), prop_s) ];
            (r, dt)))
  in
  if traced then
    lc.serve_overhead_ms <-
      (1000.0 *. (dt -. r.Proto.p_elapsed)) :: lc.serve_overhead_ms;
  let pass = expect_pass e.e_model.Model.name e.e_name in
  let verdicts =
    List.map
      (fun p -> (J.to_str (J.member "name" p), J.to_str (J.member "verdict" p)))
      (J.to_list (result_member "ctl" r) @ J.to_list (result_member "lc" r))
  in
  let ok =
    status_ok r && cache_hit r
    && r.Proto.p_exit_code = (if pass then 0 else 3)
    && verdicts = [ (name, if pass then "pass" else "fail") ]
  in
  job t ~ok ~what:(e.e_model.Model.name ^ "/" ^ name) (1000.0 *. dt);
  dt

(* Manager counters of every session, read through "reach" requests with
   stats (warm hits: the reach set is cached). *)
let session_counts server models =
  List.fold_left
    (fun acc m ->
      let r, _ = call server (request_line ~op:Proto.Reach ~stats:true m) in
      match r.Proto.p_obs with
      | Some o -> add_counts acc (counts_of o.Obs.man)
      | None -> failf "serve: reach response without stats")
    zero_counts models

let serve_setups = 3

let serve_edit ~dir ~seed ~seconds ~trace ~trace_file =
  let models = Models.table1 () in
  let t = tally () in
  let lc = layer_counts () in
  let rng = Rng.make seed in
  let refs = Span.enabled trace (fun () -> reference_counts ~dir lc models) in
  let edits = List.concat_map edits_of models in
  (* the edit texts must parse to exactly the one renamed property *)
  List.iter
    (fun e ->
      let p = Pif.parse (e.e_pif "probe") in
      let names = List.map fst p.Pif.p_ctl @ p.Pif.p_lc in
      if names <> [ "probe" ] then
        failf "edit of %s/%s does not parse to one property"
          e.e_model.Model.name e.e_name)
    edits;
  let n_props =
    sum (List.map (fun m -> float_of_int (List.length (props_of (Model.parse_pif m)))) models)
  in
  if float_of_int (List.length edits) <> n_props then
    failf "serve-edit: %d edits for %.0f properties" (List.length edits) n_props;
  (* several cold set-ups, each after dropping the previous server; the
     last server stays for the timed loop *)
  let setups = ref [] and server = ref None in
  for i = 1 to serve_setups do
    server := None;
    Gc.compact ();
    let stats = trace && i = serve_setups in
    let s, dt =
      Span.enabled stats (fun () -> serve_setup ~refs ~stats t lc models)
    in
    setups := dt :: !setups;
    server := Some s
  done;
  let server = Option.get !server in
  let k = ref 0 in
  (* the seed draws the order of the edits, the same in every round *)
  let order = Span.enabled trace (fun () ->
      Span.with_ "gen" (fun () -> shuffle (Rng.split rng) edits)) in
  let round ~traced =
    Gc.compact ();
    sum
      (List.map
         (fun e ->
           incr k;
           serve_job ~traced server t lc !k e)
         order)
  in
  if not trace then begin
    let rounds =
      repeat_rounds ~start:(now ()) ~seconds t [] (fun () -> round ~traced:false)
    in
    let peak_live = (session_counts server models).peak_live in
    print_result t (end_to_end t ~setup:!setups ~rounds ~peak_live)
  end
  else begin
    ignore (round ~traced:false);
    let untraced_check = round ~traced:false in
    let before = session_counts server models in
    let traced_check = Span.enabled true (fun () -> round ~traced:true) in
    lc.bdd <- sub_counts (session_counts server models) before;
    let s = Scache.stats (Server.cache server) in
    lc.cache_hits <- s.Scache.hits;
    lc.cache_misses <- s.Scache.misses;
    (* the image probe on each session's cached onion rings *)
    Span.enabled true (fun () ->
        List.iter
          (fun (m : Model.t) ->
            let session, _ =
              Scache.find_or_open (Server.cache server)
                ~heuristic:Server.default_config.Server.heuristic
                ~tr:Server.default_config.Server.tr
                (Hsis.Session.Verilog m.Model.verilog)
            in
            let d = Hsis.Session.design session in
            Option.iter (image_probe d.Hsis.trans) d.Hsis.reach_cache)
          models);
    finish_traced ~trace_file t lc ~untraced_check ~traced_check
  end

(* ------------------------------------------------------------------ *)
(* fuzz: seeded differential campaign, one Diff.run iteration per job *)

(* Iteration cost is heavy-tailed: about one Diff seed in a hundred takes
   hundreds of times the median, nearly all of it in the explicit oracle
   (seed 91 of this pool takes seconds, the median milliseconds).  A
   seed-drawn list would make check_s measure which designs were drawn, so
   every run covers the same pool of Diff seeds and the benchmark seed
   draws their order. *)
let fuzz_pool = List.init 100 Fun.id

(* Warm-up iteration timed as the campaign's set-up: a Diff seed outside
   the pool whose iteration costs about 0.1 s. *)
let fuzz_warmup_seed = 103
let fuzz_warmups = 11

let diff_job s = Diff.run { Diff.default_config with Diff.iters = 1; seed = s }

(* What one iteration checked: explicit states, CTL and LC checks,
   replayed counterexamples. *)
type signature = { states : int; ctl : int; lc : int; traces : int }

let signature_of (r : Diff.report) =
  { states = r.Diff.states_explored; ctl = r.Diff.ctl_checked;
    lc = r.Diff.lc_checked; traces = r.Diff.traces_replayed }

let diff_ok (r : Diff.report) =
  r.Diff.iterations = 1 && r.Diff.discrepancies = []
  && Obs.Tally.to_list r.Diff.skips = []

(* The iteration Diff.run performs for seed [s] (its gen_problem and
   run_checks), called layer by layer so that each call gets a span.
   With [explicit = false] the explicit-oracle half is skipped; the
   design manager sees the same operations either way. *)
let mirror ~explicit lc s =
  let cfg = Diff.default_config in
  let config = cfg.Diff.gen_config in
  let rng = Rng.split (Rng.make s) in
  let m, fairness, ctls, aut, heuristic, early =
    Span.with_ "gen" (fun () ->
        let m = Gen.flat ~config rng in
        let net = Hsis_blifmv.Net.of_model m in
        let fairness = Gen.fairness ~config rng net in
        let ctls = List.init cfg.Diff.ctl_per_iter (fun _ -> Gen.ctl ~config rng net) in
        let aut = if cfg.Diff.lc then Some (Gen.automaton ~config rng net) else None in
        let heuristic =
          Rng.pick rng [ Trans.Min_width; Trans.Pair_clustering; Trans.Naive ]
        in
        (m, fairness, ctls, aut, heuristic, Rng.bool rng))
  in
  let limit = cfg.Diff.state_limit in
  let net, sym =
    Span.with_ "fsm.order" (fun () ->
        let net = Hsis_blifmv.Net.of_model m in
        (net, Hsis_fsm.Sym.make (Hsis_bdd.Bdd.new_man ()) net))
  in
  let graph =
    if explicit then Some (Span.with_ "check.enum" (fun () -> Enum.build ~limit net))
    else None
  in
  let states = match graph with Some g -> Array.length g.Enum.states | None -> 0 in
  let trans = Span.with_ "fsm.relation" (fun () -> Trans.build ~heuristic sym) in
  let r =
    Span.with_ "check.reach" (fun () ->
        Reach.compute ~profile:false trans (Trans.initial trans))
  in
  let sym_states =
    int_of_float
      (Span.with_ "check.reach" (fun () -> Reach.count_states trans r.Reach.reachable))
  in
  let agree_all = ref (graph = None || sym_states = states) in
  let compiled =
    Span.with_ "check.mc" (fun () -> Hsis_auto.Fair.compile_all trans fairness)
  in
  let econstrs =
    Option.map
      (fun g -> Span.with_ "check.enum" (fun () -> Enum.compile_fairness net g fairness))
      graph
  in
  List.iter
    (fun f ->
      let sym =
        Span.with_ "check.mc" (fun () ->
            (Hsis_check.Mc.check ~fairness:compiled ~early_failure:early ~reach:r
               trans f).Hsis_check.Mc.verdict)
      in
      match (graph, econstrs) with
      | Some g, Some ec ->
          let exp = snd (Span.with_ "check.enum" (fun () -> Enum.check_ctl net g ec f)) in
          if not (V.agree sym exp) then agree_all := false
      | _ -> ())
    ctls;
  let design_counts = counts_of (Hsis_bdd.Bdd.stats (Trans.man trans)) in
  let lc_n = ref 0 and traces = ref 0 in
  (match aut with
  | Some aut when explicit ->
      let o =
        Span.with_ "check.lc" (fun () ->
            Lc.check ~fairness ~early_failure:early ~heuristic m aut)
      in
      Option.iter
        (fun p -> lc.lc_product_nodes <- lc.lc_product_nodes + Trans.parts_size p.Lc.trans)
        o.Lc.product;
      let exp = Span.with_ "check.enum" (fun () -> Enum.check_lc ~fairness ~limit m aut) in
      incr lc_n;
      if not (V.agree o.Lc.verdict exp) then agree_all := false;
      (match (o.Lc.verdict, o.Lc.product) with
      | V.Fail _, Some p ->
          let t =
            Span.with_ "debug.lasso" (fun () ->
                Trace.fair_lasso p.Lc.env ~reach:p.Lc.reach ~fair:p.Lc.fair)
          in
          if t.Trace.verified
             && Span.with_ "debug.replay" (fun () -> Trace.replay p.Lc.trans t)
          then incr traces
          else agree_all := false
      | _ -> ())
  | _ -> ());
  ( { states; ctl = List.length ctls; lc = !lc_n; traces = !traces },
    !agree_all, design_counts, trans, r )

let fuzz ~seed ~seconds ~trace ~trace_file =
  let t = tally () in
  let lc = layer_counts () in
  let rng = Rng.make seed in
  let setup =
    List.init fuzz_warmups (fun _ ->
        let r, dt = Obs.Clock.wall (fun () -> diff_job fuzz_warmup_seed) in
        if not (diff_ok r) then problem t "fuzz: warm-up seed %d" fuzz_warmup_seed;
        dt)
  in
  let sigs = Hashtbl.create 128 in
  let round () =
    let order = Span.with_ "gen" (fun () -> shuffle (Rng.split rng) fuzz_pool) in
    sum
      (List.map
         (fun s ->
           let t0 = now () in
           let r = try Ok (diff_job s) with e -> Error e in
           let dt = now () -. t0 in
           let ok =
             match r with
             | Ok r ->
                 let sg = signature_of r in
                 (* iterations are deterministic: every round repeats them *)
                 (match Hashtbl.find_opt sigs s with
                 | Some prev when prev <> sg ->
                     problem t "fuzz: seed %d changed between rounds" s
                 | _ -> Hashtbl.replace sigs s sg);
                 diff_ok r
             | Error _ -> false
           in
           job t ~ok ~what:(Printf.sprintf "fuzz seed %d" s) (1000.0 *. dt);
           dt)
         order)
  in
  if not trace then begin
    (* Peak live nodes of the pool's design managers, from the symbolic
       half of each iteration.  Live counts depend on when OCaml finalisers
       release BDD handles, so this pass runs at a fixed point of the
       process's history: before the timed rounds, in pool order. *)
    let peak_live =
      List.fold_left
        (fun acc s ->
          let _, _, c, _, _ = mirror ~explicit:false lc s in
          max acc c.peak_live)
        0 fuzz_pool
    in
    let rounds = repeat_rounds ~start:(now ()) ~seconds t [] round in
    print_result t (end_to_end t ~setup ~rounds ~peak_live)
  end
  else begin
    let untraced_check = round () in
    let traced_check =
      Span.enabled true (fun () ->
          sum
            (List.map
               (fun s ->
                 let t0 = now () in
                 let sg, agree, c, trans, r =
                   Span.with_ "timed" (fun () -> mirror ~explicit:true lc s)
                 in
                 let dt = now () -. t0 in
                 if Hashtbl.find_opt sigs s <> Some sg || not agree then
                   problem t "fuzz: the layer-by-layer iteration of seed %d \
                              disagrees with Diff.run" s;
                 lc.enum_states <- lc.enum_states + sg.states;
                 lc.reach_steps <- lc.reach_steps + r.Reach.steps;
                 lc.bdd <- add_counts lc.bdd c;
                 add_relation lc (Trans.rel_profile trans);
                 image_probe trans r;
                 dt)
               (Span.with_ "gen" (fun () -> shuffle (Rng.split rng) fuzz_pool))))
    in
    finish_traced ~trace_file t lc ~untraced_check ~traced_check
  end

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> failf "unexpected argument %s" a
  in
  let usage () =
    prerr_endline
      "usage: hsisbench run --workload table1|serve-edit|fuzz --seed N \
       --seconds S --trace 0|1 --dir DIR [--trace-file FILE]\n\
      \       hsisbench refs --dir DIR";
    exit 2
  in
  match args with
  | "run" :: rest -> (
      let o = opts [] rest in
      let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
      let dir = get "dir" in
      let seed = int_of_string (get "seed") in
      let seconds = float_of_string (get "seconds") in
      let trace =
        match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
      in
      let trace_file = List.assoc_opt "trace-file" o in
      match get "workload" with
      | "table1" -> table1 ~dir ~seed ~seconds ~trace ~trace_file
      | "serve-edit" -> serve_edit ~dir ~seed ~seconds ~trace ~trace_file
      | "fuzz" -> fuzz ~seed ~seconds ~trace ~trace_file
      | w ->
          prerr_endline ("hsisbench: unknown workload " ^ w);
          exit 2)
  | [ "refs"; "--dir"; dir ] -> rebuild_refs ~dir
  | _ -> usage ()
