(* The measuring process of the benchmark of record (see README.md).

   run.py spawns one process per repetition, so the process-global memo
   tables (formula export/fv/size/alpha memos, the canonical-printer and
   sequent-digest memos, the simplifier memo) start cold every time.
   Each process prints JSON lines on stdout: one [ready] line once the
   engine is built and the inputs are parsed, then one [result] line.
   All derived figures (percentiles, roles, self time, checks) are
   computed by run.py from these raw numbers.

     jbench cold [--trace] [--setup-only] FILE...
       verify FILE... as one program, once, on a fresh engine
     jbench edit --seed N --cycles C --store DIR [--trace] [--setup-only]
                 FILE...
       set up a resident server with an on-disk store in DIR, then run a
       closed-loop stream of C cycles of seeded single-mutation edits;
       each cycle starts when a line arrives on stdin and ends with a
       [cycle] line *)

open Jahob_core

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

type j =
  | Num of float
  | Int of int
  | Str of string
  | Arr of j list
  | Obj of (string * j) list

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec add_json b = function
  | Num f -> Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Str s -> add_string b s
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        add_json b x)
      xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        add_string b k;
        Buffer.add_char b ':';
        add_json b v)
      kvs;
    Buffer.add_char b '}'

let print_line (x : j) : unit =
  let b = Buffer.create 4096 in
  add_json b x;
  print_string (Buffer.contents b);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Prover-call accounting                                              *)
(* ------------------------------------------------------------------ *)

(* Every prover of the portfolio is wrapped before it reaches the
   engine, so each attempt is timed from here, traced run or not.  The
   wrapper keeps the prover's name: the scheduler's admission table and
   the inference prover filter both select provers by name.  The engine
   runs with one worker domain and no budgets, so calls never overlap. *)

type tally = {
  mutable attempts : int;
  mutable settled : int;
  mutable time_s : float;
  mutable giveup_s : float; (* time of the attempts that ended Unknown *)
}

(* keyed by (prover, sequent name); run.py derives roles from names *)
let tallies : (string * string, tally) Hashtbl.t = Hashtbl.create 256

(* consecutive attempts on one physical sequent are one obligation's
   cascade through the portfolio; the end of its last attempt, measured
   from [origin], is when the obligation's verdict became known *)
let verdicts : float list ref = ref []
let origin = ref 0.
let cur_sequent : Logic.Sequent.t option ref = ref None
let cur_t1 = ref 0.

let close_cascade () =
  if !cur_sequent <> None then begin
    verdicts := (!cur_t1 -. !origin) :: !verdicts;
    cur_sequent := None
  end

let reset_calls () =
  Hashtbl.reset tallies;
  verdicts := [];
  cur_sequent := None

let record (p : string) (s : Logic.Sequent.t) t0 t1 ~settled =
  let k = (p, s.Logic.Sequent.name) in
  let t =
    match Hashtbl.find_opt tallies k with
    | Some t -> t
    | None ->
      let t = { attempts = 0; settled = 0; time_s = 0.; giveup_s = 0. } in
      Hashtbl.add tallies k t;
      t
  in
  let dt = t1 -. t0 in
  t.attempts <- t.attempts + 1;
  t.time_s <- t.time_s +. dt;
  if settled then t.settled <- t.settled + 1 else t.giveup_s <- t.giveup_s +. dt;
  (match !cur_sequent with
  | Some s' when s' == s -> ()
  | _ ->
    close_cascade ();
    cur_sequent := Some s);
  cur_t1 := t1

let wrap (p : Logic.Sequent.prover) : Logic.Sequent.prover =
  let name = p.Logic.Sequent.prover_name in
  { p with
    Logic.Sequent.prove =
      (fun s ->
        let t0 = Clock.now () in
        match p.Logic.Sequent.prove s with
        | v ->
          let settled =
            match v with
            | Logic.Sequent.Valid | Logic.Sequent.Invalid _ -> true
            | Logic.Sequent.Unknown _ -> false
          in
          record name s t0 (Clock.now ()) ~settled;
          v
        | exception e ->
          record name s t0 (Clock.now ()) ~settled:false;
          raise e) }

let calls_json () : j =
  Arr
    (Hashtbl.fold
       (fun (p, n) t acc ->
         Obj
           [ ("p", Str p); ("n", Str n); ("a", Int t.attempts);
             ("s", Int t.settled); ("t", Num t.time_s); ("g", Num t.giveup_s) ]
         :: acc)
       tallies [])

(* ------------------------------------------------------------------ *)
(* Reports and layers                                                  *)
(* ------------------------------------------------------------------ *)

(* a method's verdict multiset, as sorted verdict kinds *)
let verdict_kinds (m : Jahob.method_report) : string list =
  List.sort compare
    (List.map
       (fun (r : Dispatch.report) -> Logic.Sequent.verdict_kind r.Dispatch.verdict)
       m.Jahob.obligations.Dispatch.reports)

let method_json (m : Jahob.method_report) : j =
  let s = m.Jahob.obligations in
  Obj
    [ ("name", Str m.Jahob.method_name);
      ("total", Int s.Dispatch.total);
      ("valid", Int s.Dispatch.valid);
      ("invalid", Int s.Dispatch.invalid);
      ("unknown", Int s.Dispatch.unknown) ]

let options () : Jahob.options =
  { (Jahob.default_options ()) with
    Jahob.provers = List.map wrap (Jahob.default_provers ());
    jobs = 1 }

let parse files = List.concat_map Javaparser.Jparser.parse_program_file files

let timed f =
  let t0 = Clock.now () in
  let v = f () in
  (v, Clock.now () -. t0)

(* what the lib/trace spans and counters recorded, plus the wp layer
   timed from here with inference off; call after [Trace.stop], so the
   wp pass below does not add to the trace *)
let layer_fields (prog : Javaparser.Ast.program) : (string * j) list =
  let spans =
    List.map
      (fun (k, (st : Trace.stat)) ->
        (k, Obj [ ("count", Int st.Trace.count); ("total_s", Num st.Trace.total_s) ]))
      (Trace.span_stats ())
  in
  let counters = List.map (fun (k, n) -> (k, Int n)) (Trace.counter_list ()) in
  let tasks = Gcl.Desugar.program_tasks prog in
  let obligations = ref 0 in
  let (), wp_s =
    timed (fun () ->
        List.iter
          (fun t ->
            obligations :=
              !obligations
              + List.length (Vcgen.method_obligations ~opts:Vcgen.default_options t))
          tasks)
  in
  [ ("spans", Obj spans); ("counters", Obj counters); ("wp_s", Num wp_s);
    ("wp_obligations", Int !obligations) ]

let ready () = print_line (Obj [ ("event", Str "ready"); ("mono", Num (Clock.now ())) ])

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let cold ~traced ~setup_only files =
  let prog, parse_s = timed (fun () -> parse files) in
  let engine = Jahob.create_engine (options ()) in
  ready ();
  if setup_only then begin
    Jahob.shutdown_engine engine;
    print_line (Obj [ ("event", Str "result") ])
  end
  else begin
    if traced then Trace.start_collecting ();
    origin := Clock.now ();
    let report, verify_s =
      timed (fun () -> Jahob.verify_program_with engine prog)
    in
    if traced then Trace.stop ();
    close_cascade ();
    Jahob.shutdown_engine engine;
    print_line
      (Obj
         ([ ("event", Str "result"); ("verify_s", Num verify_s);
            ("parse_s", Num parse_s);
            ("tasks", Int (List.length report.Jahob.methods));
            ("methods", Arr (List.map method_json report.Jahob.methods));
            ("calls", calls_json ());
            ("verdicts_s", Arr (List.rev_map (fun x -> Num x) !verdicts)) ]
         @ if traced then layer_fields prog else []))
  end

(* per-method verdict multisets of an incremental report against a
   from-scratch one: (methods agreeing, methods compared) *)
let agreement (inc : Jahob.program_report) (scratch : Jahob.program_report) =
  List.fold_left
    (fun (ok, n) (m : Jahob.method_report) ->
      let same =
        match
          List.find_opt
            (fun (m' : Jahob.method_report) ->
              m'.Jahob.method_name = m.Jahob.method_name)
            inc.Jahob.methods
        with
        | Some m' -> verdict_kinds m' = verdict_kinds m
        | None -> false
      in
      ((if same then ok + 1 else ok), n + 1))
    (0, 0) scratch.Jahob.methods

(* Every distinct program one Incmut mutation makes from [base]: each
   mutation is applied under a fixed range of generator states, and
   repeats (mutants equal to the base included, which "noop" yields
   first) are dropped.  The set depends on the base only, never on the
   stream's seed, so every stream cycles over the same edits. *)
let distinct_mutants (base : Javaparser.Ast.program) :
    (string * Javaparser.Ast.program) array =
  let tries = 200 in
  let found =
    List.fold_left
      (fun acc (name, mutate) ->
        let rec go r acc =
          if r = tries then acc
          else
            match mutate (Random.State.make [| r |]) base with
            | Some p when not (List.exists (fun (_, q) -> q = p) acc) ->
              go (r + 1) ((name, p) :: acc)
            | _ -> go (r + 1) acc
        in
        go 0 acc)
      [] Fuzz.Incmut.mutations
  in
  Array.of_list (List.rev found)

let shuffle rng (a : 'a array) : 'a array =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let k = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(k);
    a.(k) <- t
  done;
  a

(* mutants re-verified from scratch after a stream *)
let agree_sample = 20

let edit ~traced ~seed ~cycles ~store_dir ~setup_only files =
  let base, parse_s = timed (fun () -> parse files) in
  let server =
    Daemon.Server.create
      { (Daemon.Server.default_config ()) with
        Daemon.Server.opts = options ();
        store_path = Some (Filename.concat store_dir "verdicts.jstore");
        log = ignore }
  in
  let engine = Daemon.Server.engine server in
  let source = Daemon.Server.method_source server in
  let base_report = Jahob.verify_program_inc engine ~source base in
  Daemon.Server.persist server;
  ready ();
  let base_fields =
    [ ("parse_s", Num parse_s);
      ("methods", Arr (List.map method_json base_report.Jahob.methods));
      ("calls", calls_json ()) ]
  in
  if setup_only then begin
    Daemon.Server.shutdown server;
    print_line (Obj (("event", Str "result") :: base_fields))
  end
  else begin
    reset_calls ();
    let mutants = distinct_mutants base in
    let rng = Random.State.make [| seed |] in
    (* the mutants re-verified from scratch afterwards, against their
       latest incremental report *)
    let sampled =
      Array.sub (shuffle rng (Array.init (Array.length mutants) Fun.id)) 0
        (min agree_sample (Array.length mutants))
    in
    let latest = Hashtbl.create 16 in
    let lat = ref [] and cycle_s = ref [] in
    let inc_s = ref 0. and persist_s = ref 0. in
    let reverified = ref 0 and unchanged = ref 0 in
    let valid = ref 0 and total = ref 0 in
    let methods = ref 0 and methods_ok = ref 0 in
    let one_edit i =
      let patched = snd mutants.(i) in
      let t0 = Clock.now () in
      let r = Jahob.verify_program_inc engine ~source patched in
      let t1 = Clock.now () in
      Daemon.Server.persist server;
      let t2 = Clock.now () in
      lat := (t2 -. t0) :: !lat;
      inc_s := !inc_s +. (t1 -. t0);
      persist_s := !persist_s +. (t2 -. t1);
      List.iter
        (fun (m : Jahob.method_report) ->
          let s = m.Jahob.obligations in
          if m.Jahob.provenance = Jahob.Unchanged then incr unchanged
          else incr reverified;
          valid := !valid + s.Dispatch.valid;
          total := !total + s.Dispatch.total;
          incr methods;
          if s.Dispatch.valid = s.Dispatch.total then incr methods_ok)
        r.Jahob.methods;
      if Array.mem i sampled then Hashtbl.replace latest i r
    in
    if traced then Trace.start_collecting ();
    (* each cycle applies every distinct edit once, in a fresh seeded
       order *)
    for _ = 1 to cycles do
      (* run.py probes the host's speed between cycles, while this
         process waits for its go line *)
      ignore (input_line stdin);
      let order = shuffle rng (Array.init (Array.length mutants) Fun.id) in
      let (), dt = timed (fun () -> Array.iter one_edit order) in
      cycle_s := dt :: !cycle_s;
      print_line (Obj [ ("event", Str "cycle") ])
    done;
    if traced then Trace.stop ();
    let layers = if traced then layer_fields base else [] in
    let calls = calls_json () in
    let store_bytes =
      (Unix.stat (Filename.concat store_dir "verdicts.jstore")).Unix.st_size
    in
    Daemon.Server.shutdown server;
    (* outside the timed loop: each sampled mutant from scratch, on a
       fresh engine with the plain portfolio *)
    let agree, compared =
      Hashtbl.fold
        (fun i inc (a, c) ->
          let e = Jahob.create_engine (Jahob.default_options ()) in
          let scratch = Jahob.verify_program_with e (snd mutants.(i)) in
          Jahob.shutdown_engine e;
          let a', c' = agreement inc scratch in
          (a + a', c + c'))
        latest (0, 0)
    in
    print_line
      (Obj
         ([ ("event", Str "result"); ("edits", Int (List.length !lat));
            ("mutants", Int (Array.length mutants));
            ("cycle_s", Arr (List.rev_map (fun x -> Num x) !cycle_s));
            ("lat_s", Arr (List.rev_map (fun x -> Num x) !lat));
            ("inc_s", Num !inc_s); ("persist_s", Num !persist_s);
            ("reverified", Int !reverified); ("unchanged", Int !unchanged);
            ("valid", Int !valid); ("total", Int !total);
            ("methods_ok", Int !methods_ok); ("methods", Int !methods);
            ("store_bytes", Int store_bytes);
            ("agree", Int agree); ("compared", Int compared);
            ("calls", calls);
            ("base", Obj base_fields) ]
         @ layers))
  end

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: jbench cold [--trace] [--setup-only] FILE...\n\
    \       jbench edit --seed N --cycles C --store DIR [--trace] \
     [--setup-only] FILE...";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let traced = ref false and setup_only = ref false in
  let seed = ref 0 and cycles = ref 1 and store = ref "" in
  let rec flags acc = function
    | "--trace" :: rest -> traced := true; flags acc rest
    | "--setup-only" :: rest -> setup_only := true; flags acc rest
    | "--seed" :: v :: rest -> seed := int_of_string v; flags acc rest
    | "--cycles" :: v :: rest -> cycles := int_of_string v; flags acc rest
    | "--store" :: v :: rest -> store := v; flags acc rest
    | f :: rest -> flags (f :: acc) rest
    | [] -> List.rev acc
  in
  match args with
  | "cold" :: rest -> (
    match flags [] rest with
    | [] -> usage ()
    | files -> cold ~traced:!traced ~setup_only:!setup_only files)
  | "edit" :: rest -> (
    match flags [] rest with
    | [] -> usage ()
    | files ->
      if !store = "" then usage ();
      edit ~traced:!traced ~seed:!seed ~cycles:!cycles ~store_dir:!store
        ~setup_only:!setup_only files)
  | _ -> usage ()
