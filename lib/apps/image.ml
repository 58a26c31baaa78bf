(** Grayscale/RGB images, PGM text I/O and a synthetic scene generator.

    The case study (Fig. 7) applies the Otsu filter to a photograph; in this
    sealed environment we substitute a deterministic synthetic scene —
    bimodal background/foreground intensities with shapes and noise — which
    exercises the same code path and gives Otsu a meaningful threshold. *)

type t = { width : int; height : int; pixels : int array (* row-major *) }

let create ~width ~height =
  if width <= 0 || height <= 0 then invalid_arg "Image.create: bad dimensions";
  { width; height; pixels = Array.make (width * height) 0 }

let get img ~x ~y = img.pixels.((y * img.width) + x)
let set img ~x ~y v = img.pixels.((y * img.width) + x) <- v land 0xff

let size img = img.width * img.height

let map f img = { img with pixels = Array.map f img.pixels }

let equal a b = a.width = b.width && a.height = b.height && a.pixels = b.pixels

(* Pack an RGB triple into a 24-bit word (the beat format of the imageIn
   stream). *)
let pack_rgb ~r ~g ~b = ((r land 0xff) lsl 16) lor ((g land 0xff) lsl 8) lor (b land 0xff)

let unpack_rgb v = ((v lsr 16) land 0xff, (v lsr 8) land 0xff, v land 0xff)

(* Luma approximation used by the grayScale kernel (pure integer):
   (77 R + 150 G + 29 B) / 256 ~ ITU-R BT.601. *)
let luma ~r ~g ~b = ((77 * r) + (150 * g) + (29 * b)) / 256

(* ------------------------------------------------------------------ *)
(* Synthetic scenes                                                    *)
(* ------------------------------------------------------------------ *)

type rgb_image = { rgb_width : int; rgb_height : int; rgb : int array (* packed *) }

(* Bimodal scene: dark textured background, bright foreground disks and a
   bar, plus noise. Deterministic for a given seed. *)
let synthetic_rgb ?(seed = 42) ~width ~height () =
  let rng = Soc_util.Rng.create seed in
  let rgb = Array.make (width * height) 0 in
  let disk cx cy r x y = ((x - cx) * (x - cx)) + ((y - cy) * (y - cy)) <= r * r in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      let fg =
        disk (width / 4) (height / 3) (width / 6) x y
        || disk (3 * width / 4) (2 * height / 3) (width / 7) x y
        || (y > (2 * height / 5) && y < (2 * height / 5) + (height / 12))
      in
      let base = if fg then 190 else 55 in
      let noise = Soc_util.Rng.int rng 31 - 15 in
      let v = max 0 (min 255 (base + noise)) in
      (* Slightly tinted channels so grayScale has real work to do. *)
      let r = max 0 (min 255 (v + 10))
      and g = v
      and b = max 0 (min 255 (v - 10)) in
      rgb.((y * width) + x) <- pack_rgb ~r ~g ~b
    done
  done;
  { rgb_width = width; rgb_height = height; rgb }

let rgb_to_gray (img : rgb_image) : t =
  let out = create ~width:img.rgb_width ~height:img.rgb_height in
  Array.iteri
    (fun i v ->
      let r, g, b = unpack_rgb v in
      out.pixels.(i) <- luma ~r ~g ~b)
    img.rgb;
  out

(* ------------------------------------------------------------------ *)
(* PGM (P2, ASCII) I/O                                                 *)
(* ------------------------------------------------------------------ *)

let to_pgm img =
  let buf = Buffer.create (size img * 4) in
  Buffer.add_string buf (Printf.sprintf "P2\n%d %d\n255\n" img.width img.height);
  for y = 0 to img.height - 1 do
    for x = 0 to img.width - 1 do
      Buffer.add_string buf (string_of_int (get img ~x ~y));
      Buffer.add_char buf (if x = img.width - 1 then '\n' else ' ')
    done
  done;
  Buffer.contents buf

exception Bad_pgm of string

let of_pgm text =
  let tokens =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.length l = 0 || l.[0] <> '#')
    |> String.concat " "
    |> String.split_on_char ' '
    |> List.filter (fun s -> s <> "")
  in
  match tokens with
  | "P2" :: w :: h :: maxv :: rest ->
    let width = int_of_string w and height = int_of_string h in
    ignore maxv;
    let img = create ~width ~height in
    let vals = List.map int_of_string rest in
    if List.length vals <> width * height then raise (Bad_pgm "pixel count mismatch");
    List.iteri (fun i v -> img.pixels.(i) <- v land 0xff) vals;
    img
  | _ -> raise (Bad_pgm "not a P2 PGM")

let write_pgm_file path img =
  let oc = open_out path in
  output_string oc (to_pgm img);
  close_out oc

(* Histogram of a grayscale image: the golden model for the
   computeHistogram kernel. *)
let histogram img =
  let h = Array.make 256 0 in
  Array.iter (fun v -> h.(v) <- h.(v) + 1) img.pixels;
  h
