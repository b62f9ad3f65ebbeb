package chain

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/abi"
	"repro/internal/eos"
)

// FuzzTransferCodec holds the fixed-layout transfer codec to the generic
// abi coder over abi.TransferABI, its oracle. For any TransferArgs,
// EncodeTransfer must produce the generic encoding byte for byte and
// decode back to the same arguments. For any byte string, DecodeTransfer
// must accept exactly what the generic decoder accepts, with the same
// values, and reject the rest with the same error text.
func FuzzTransferCodec(f *testing.F) {
	canonical := EncodeTransfer(TransferArgs{
		From: alice, To: eos.MustName("bob"), Quantity: eos.EOS(1), Memo: "memo",
	})
	long := EncodeTransfer(TransferArgs{Memo: string(bytes.Repeat([]byte{'m'}, 200))})
	for _, data := range [][]byte{
		canonical,
		append(append([]byte(nil), canonical...), "trailing"...),
		canonical[:len(canonical)-1], // memo runs past the end
		canonical[:32],               // no memo length
		canonical[:31],               // short head
		{},
		long,
		long[:33],                            // two-byte memo length cut in half
		append(make([]byte, 32), 0x80, 0x00), // non-canonical empty memo
		append(make([]byte, 32), 0xff, 0xff, 0xff, 0xff, 0x7f),       // length overflows 32 bits
		append(make([]byte, 32), 0x80, 0x80, 0x80, 0x80, 0x80, 0x00), // length too long
	} {
		f.Add(uint64(alice), uint64(eos.TokenContract), int64(-1), uint64(eos.EOSSymbol), "", data)
	}
	f.Add(uint64(0), uint64(0), int64(0), uint64(0), string(bytes.Repeat([]byte{0xff}, 130)), []byte(nil))

	a := abi.TransferABI()
	f.Fuzz(func(t *testing.T, from, to uint64, amount int64, symbol uint64, memo string, data []byte) {
		args := TransferArgs{
			From: eos.Name(from), To: eos.Name(to),
			Quantity: eos.Asset{Amount: amount, Symbol: eos.Symbol(symbol)},
			Memo:     memo,
		}
		want, err := abi.NewEncoder(a).EncodeAction(eos.ActionTransfer, []any{args.From, args.To, args.Quantity, args.Memo})
		if err != nil {
			t.Fatalf("generic encoder: %v", err)
		}
		got := EncodeTransfer(args)
		if !bytes.Equal(got, want) {
			t.Fatalf("EncodeTransfer(%+v) = %x, generic encoding %x", args, got, want)
		}
		if app := AppendTransfer(data, args.From, args.To, args.Quantity, []byte(memo)); !bytes.Equal(app[:len(data)], data) || !bytes.Equal(app[len(data):], want) {
			t.Fatalf("AppendTransfer(%x, %+v) = %x, want the prefix and then %x", data, args, app, want)
		}
		if back, err := DecodeTransfer(got); err != nil || back != args {
			t.Fatalf("DecodeTransfer(EncodeTransfer(%+v)) = %+v, %v", args, back, err)
		}

		dec, decErr := DecodeTransfer(data)
		vals, genErr := abi.NewDecoder(a, data).DecodeAction(eos.ActionTransfer)
		if genErr != nil {
			want := fmt.Errorf("bad transfer payload: %w", genErr).Error()
			if decErr == nil || decErr.Error() != want {
				t.Fatalf("DecodeTransfer(%x) = %+v, %v; the generic decoder rejects it: %s", data, dec, decErr, want)
			}
			return
		}
		if decErr != nil {
			t.Fatalf("DecodeTransfer(%x): %v; the generic decoder accepts it as %v", data, decErr, vals)
		}
		wantArgs := TransferArgs{
			From: vals[0].(eos.Name), To: vals[1].(eos.Name),
			Quantity: vals[2].(eos.Asset), Memo: vals[3].(string),
		}
		if dec != wantArgs {
			t.Fatalf("DecodeTransfer(%x) = %+v, generic decoder %+v", data, dec, wantArgs)
		}
	})
}
