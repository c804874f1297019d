(** Heterogeneous verification — the NIC driver of Examples 1.1 and 3.10.

    The paper motivates CompCertO with a network-card driver that should
    be specified directly in terms of network communication, not C-level
    interactions. We build the scenario of Fig. 7:

    - [Net]: the language interface of the network — questions poll for or
      transmit ethernet-level bytes;
    - [IO]: device I/O — questions read or write NIC registers;
    - [sigma_nic : Net ↠ IO]: a model of the NIC hardware, mapping
      register accesses to network activity;
    - [sigma_io : IO ↠ C]: C-callable I/O primitives ([io_read],
      [io_write]), axiomatized rather than implemented (they are the
      unverifiable hardware access layer);
    - the driver: an actual C program providing [net_recv]/[net_send]
      /[net_echo] on top of the primitives.

    The layered composition [driver ∘ sigma_io ∘ sigma_nic : Net ↠ C]
    gives the high-level specification's type. We then compile the driver
    with the full pipeline and run
    [Asm(driver') ∘ sigma_io_asm ∘ sigma_nic], where [sigma_io_asm] is
    the assembly-level axiomatization of the primitives (eq. (7) of the
    paper: [sigma_io ≤ id↠C sigma_io']), and check that both stacks
    produce the same network-level behavior. *)

open Support
open Memory.Mtypes
open Memory.Values
open Core
open Iface
open Iface.Li

(** {1 The Net and IO language interfaces} *)

type net_query = Poll | Transmit of int
type net_reply = NetByte of int | NetAck

type io_query = IoRead of int | IoWrite of int * int
type io_reply = IoVal of int

(* NIC register map. *)
let reg_tx = 0
let reg_rx = 1

(** {1 sigma_nic : Net ↠ IO — the NIC model} *)

type nic_state = NicIdle of io_query | NicWaiting of io_query

let sigma_nic : (nic_state, io_query, io_reply, net_query, net_reply) Smallstep.lts =
  {
    Smallstep.name = "sigma_nic";
    dom = (fun _ -> true);
    init = (fun q -> [ NicIdle q ]);
    step = (fun _ -> []);
    at_external =
      (fun s ->
        match s with
        | NicIdle (IoWrite (r, b)) when r = reg_tx -> Some (Transmit b)
        | NicIdle (IoRead r) when r = reg_rx -> Some Poll
        | _ -> None);
    after_external =
      (fun s reply ->
        match (s, reply) with
        | NicIdle q, NetAck -> [ NicWaiting q ]
        | NicIdle q, NetByte _ -> (
          match q with IoRead _ -> [ NicWaiting q ] | _ -> [])
        | _ -> []);
    final =
      (fun s ->
        match s with
        | NicWaiting (IoWrite _) -> Some (IoVal 0)
        | NicIdle (IoWrite (r, _)) when r <> reg_tx -> Some (IoVal 0)
        | NicIdle (IoRead r) when r <> reg_rx -> Some (IoVal 0)
        | _ -> None);
    handover = None;
  }

(* The NIC answers reads of RX with the polled byte: we need the byte from
   the Net reply. Rework with the byte recorded. *)
type nic_state2 = N_init of io_query | N_done of int

let sigma_nic : (nic_state2, io_query, io_reply, net_query, net_reply) Smallstep.lts =
  ignore sigma_nic;
  {
    Smallstep.name = "sigma_nic";
    dom = (fun _ -> true);
    init = (fun q -> [ N_init q ]);
    step =
      (fun s ->
        match s with
        (* Accesses to unknown registers complete immediately with 0. *)
        | N_init (IoWrite (r, _)) when r <> reg_tx -> [ (Events.e0, N_done 0) ]
        | N_init (IoRead r) when r <> reg_rx -> [ (Events.e0, N_done 0) ]
        | _ -> []);
    at_external =
      (fun s ->
        match s with
        | N_init (IoWrite (r, b)) when r = reg_tx -> Some (Transmit b)
        | N_init (IoRead r) when r = reg_rx -> Some Poll
        | _ -> None);
    after_external =
      (fun s reply ->
        match (s, reply) with
        | N_init (IoWrite _), NetAck -> [ N_done 0 ]
        | N_init (IoRead _), NetByte b -> [ N_done b ]
        | _ -> []);
    final = (fun s -> match s with N_done v -> Some (IoVal v) | _ -> None);
    handover = None;
  }

(** {1 sigma_io : IO ↠ C — C-callable I/O primitives} *)

let id_io_read = Ident.intern "io_read"
let id_io_write = Ident.intern "io_write"

let sg_read = { sig_args = [ Tint ]; sig_res = Some Tint }
let sg_write = { sig_args = [ Tint; Tint ]; sig_res = Some Tint }

type io_c_state = IoC_init of c_query | IoC_done of int * Memory.Mem.t

(* Which C functions sigma_io provides, given the shared symbol table. *)
let sigma_io ~(symbols : Ident.t list) :
    (io_c_state, c_query, c_reply, io_query, io_reply) Smallstep.lts =
  let symtbl, _ = Genv.make_symtbl symbols in
  let addr_of id =
    match Ident.Map.find_opt id symtbl with
    | Some b -> Vptr (b, 0)
    | None -> Vundef
  in
  let classify q =
    if q.cq_vf = addr_of id_io_read && signature_equal q.cq_sg sg_read then
      match q.cq_args with
      | [ Vint r ] -> Some (IoRead (Int32.to_int r))
      | _ -> None
    else if q.cq_vf = addr_of id_io_write && signature_equal q.cq_sg sg_write
    then
      match q.cq_args with
      | [ Vint r; Vint v ] -> Some (IoWrite (Int32.to_int r, Int32.to_int v))
      | _ -> None
    else None
  in
  {
    Smallstep.name = "sigma_io";
    dom = (fun q -> classify q <> None);
    init = (fun q -> [ IoC_init q ]);
    step = (fun _ -> []);
    at_external = (fun s -> match s with IoC_init q -> classify q | _ -> None);
    after_external =
      (fun s (IoVal v) ->
        match s with
        | IoC_init q -> [ IoC_done (v, q.cq_mem) ]
        | _ -> []);
    final =
      (fun s ->
        match s with
        | IoC_done (v, m) -> Some { cr_res = Vint (Int32.of_int v); cr_mem = m }
        | _ -> None);
    handover = None;
  }

(** {1 sigma_io' : IO ↠ A — the assembly-level axiomatization (eq. 7)}

    The same primitives, specified at the level of machine registers: the
    argument values are read where the calling convention puts them, and
    the answer sets the result register and jumps to RA — the shape the
    [CA] convention prescribes ({!Iface.Callconv.ca_arguments} and
    [ca_reply]). *)

type io_a_state = IoA_init of signature * a_query | IoA_done of a_reply

let sigma_io_asm ~(symbols : Ident.t list) :
    (io_a_state, a_query, a_reply, io_query, io_reply) Smallstep.lts =
  let symtbl, _ = Genv.make_symtbl symbols in
  let addr_of id =
    match Ident.Map.find_opt id symtbl with
    | Some b -> Vptr (b, 0)
    | None -> Vundef
  in
  let signature_of q =
    let pc = Pregfile.get PC q.aq_rs in
    if pc = addr_of id_io_read then Some sg_read
    else if pc = addr_of id_io_write then Some sg_write
    else None
  in
  let classify sg q =
    match Callconv.ca_arguments sg q with
    | [ Vint r ] -> Some (IoRead (Int32.to_int r))
    | [ Vint r; Vint v ] -> Some (IoWrite (Int32.to_int r, Int32.to_int v))
    | _ -> None
  in
  {
    Smallstep.name = "sigma_io'";
    dom =
      (fun q ->
        match signature_of q with Some sg -> classify sg q <> None | None -> false);
    init =
      (fun q -> match signature_of q with Some sg -> [ IoA_init (sg, q) ] | None -> []);
    step = (fun _ -> []);
    at_external =
      (fun s -> match s with IoA_init (sg, q) -> classify sg q | _ -> None);
    after_external =
      (fun s (IoVal v) ->
        match s with
        | IoA_init (sg, q) ->
          [ IoA_done (Callconv.ca_reply ~sg ~res:(Vint (Int32.of_int v)) q) ]
        | _ -> []);
    final = (fun s -> match s with IoA_done r -> Some r | _ -> None);
    handover = None;
  }

(** {1 The driver, in C} *)

let driver_source =
  {|
int io_read(int reg);
int io_write(int reg, int val);

/* Receive one byte from the network. */
int net_recv(void) {
  return io_read(1);
}

/* Send one byte to the network. */
int net_send(int b) {
  return io_write(0, b);
}

/* Echo n bytes, incrementing each: the driver's "protocol". */
int net_echo(int n) {
  int sum = 0;
  for (int i = 0; i < n; i++) {
    int b = net_recv();
    net_send(b + 1);
    sum = sum + b;
  }
  return sum;
}
|}

(** {1 The network environment}

    The environment supplies polled bytes and records transmissions: the
    observable network behavior. *)

let net_env () =
  let transmitted = ref [] in
  let next = ref 10 in
  let oracle (q : net_query) =
    match q with
    | Poll ->
      let b = !next in
      next := b + 10;
      Some (NetByte b)
    | Transmit b ->
      transmitted := b :: !transmitted;
      Some NetAck
  in
  (oracle, fun () -> List.rev !transmitted)

(** {1 Putting the stacks together (Fig. 7)} *)

let fuel = 1_000_000

let () =
  Format.printf "=== Heterogeneous NIC driver (Examples 1.1 / 3.10) ===@.@.";
  let driver = Cfrontend.Cparser.parse_program driver_source in
  let symbols = Ast.prog_defs_names driver in
  let ge = Genv.globalenv ~symbols driver in
  let m0 = Option.get (Genv.init_mem ~symbols driver) in
  let q =
    { cq_vf = Genv.symbol_address ge (Ident.intern "net_echo") 0;
      cq_sg = { sig_args = [ Tint ]; sig_res = Some Tint };
      cq_args = [ Vint 3l ]; cq_mem = m0 }
  in

  (* Source-level stack: Clight(driver) ∘ sigma_io ∘ sigma_nic : Net ↠ C *)
  let src_stack =
    Vcomp.layer
      (Vcomp.layer (Cfrontend.Clight.semantics ~symbols driver) (sigma_io ~symbols))
      sigma_nic
  in
  let oracle_src, sent_src = net_env () in
  let src_out = Smallstep.run ~fuel src_stack ~oracle:oracle_src q in
  Format.printf "Source stack  Clight(drv) . sigma_io . sigma_nic:@.";
  Format.printf "  net_echo(3) = %a@."
    (Smallstep.pp_outcome pp_c_reply) src_out;
  Format.printf "  transmitted frames: %s@.@."
    (String.concat ", " (List.map string_of_int (sent_src ())));

  (* Target-level stack: Asm(driver') ∘ sigma_io' ∘ sigma_nic : Net ↠ A,
     activated through the convention C (paper: sigma <= id↠C Asm(p') ∘
     sigma_io' ∘ sigma_nic). *)
  let arts = Errors.get (Driver.Compiler.compile driver) in
  let tgt_stack =
    Vcomp.layer
      (Vcomp.layer (Backend.Asm.semantics ~symbols arts.asm) (sigma_io_asm ~symbols))
      sigma_nic
  in
  let oracle_tgt, sent_tgt = net_env () in
  (match Driver.Runners.cc_ca.Simconv.fwd_query q with
  | Some (w, aq) -> (
    let tgt_out = Smallstep.run ~fuel tgt_stack ~oracle:oracle_tgt aq in
    Format.printf "Target stack  Asm(drv') . sigma_io' . sigma_nic:@.";
    (match tgt_out with
    | Smallstep.Final (_, ar) -> (
      match Driver.Runners.cc_ca.Simconv.bwd_reply w ar with
      | Some cr ->
        Format.printf "  net_echo(3) = final %a@." pp cr.cr_res;
        Format.printf "  transmitted frames: %s@.@."
          (String.concat ", " (List.map string_of_int (sent_tgt ())));
        let agree =
          sent_src () = sent_tgt ()
          &&
          match src_out with
          | Smallstep.Final (_, cr0) -> lessdef cr0.cr_res cr.cr_res
          | _ -> false
        in
        Format.printf
          "Network-level behaviors agree across the heterogeneous stacks: %s@."
          (if agree then "YES" else "NO")
      | None -> Format.printf "  (reply unmarshalable)@.")
    | o ->
      Format.printf "  %a@."
        (Smallstep.pp_outcome (fun fmt _ -> Format.pp_print_string fmt "<rs>"))
        o))
  | None -> Format.printf "marshaling failed@.")
